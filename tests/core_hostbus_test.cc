/** @file Tests for the host interface model (Figures 1-1, 3-1). */

#include <gtest/gtest.h>

#include "core/hostbus.hh"

namespace spm::core
{
namespace
{

TEST(HostBus, PrototypeCharRate)
{
    // One character per 250 ns beat: 4 million characters per second.
    HostBusModel bus;
    EXPECT_NEAR(bus.chipCharsPerSec(), 4.0e6, 1.0);
}

TEST(HostBus, DemandExceedsEraHosts)
{
    // The paper's claim: the chip's data rate "is higher than the
    // memory bandwidth of most conventional computers."
    HostBusModel bus(prototypeBeatPs, 8);
    EXPECT_TRUE(bus.chipOutrunsHost(hostPdp11()));
    EXPECT_FALSE(bus.chipOutrunsHost(hostVax780()))
        << "a 5 MB/s machine can just keep up with a byte stream";
    EXPECT_GT(bus.chipDemandBytesPerSec(),
              hostPdp11().bandwidthBytesPerSec);
}

TEST(HostBus, EffectiveRateClampedByHost)
{
    HostBusModel bus(prototypeBeatPs, 8);
    const double pdp = bus.effectiveTextCharsPerSec(hostPdp11());
    const double vax = bus.effectiveTextCharsPerSec(hostVax780());
    EXPECT_LT(pdp, vax);
    // Unconstrained, the text rate is half the bus rate.
    EXPECT_NEAR(vax, bus.chipCharsPerSec() / 2.0, 1e3);
    // A slow host scales the rate by its bandwidth ratio.
    EXPECT_NEAR(pdp,
                bus.chipCharsPerSec() / 2.0 *
                    (hostPdp11().bandwidthBytesPerSec /
                     bus.chipDemandBytesPerSec()),
                1e3);
}

TEST(HostBus, SlowerClockEasesDemand)
{
    // At a 1 us beat the chip no longer outruns a 4 MB/s host.
    HostBusModel slow(1'000'000, 8);
    EXPECT_FALSE(slow.chipOutrunsHost(hostVax780()));
    EXPECT_LT(slow.chipDemandBytesPerSec(),
              HostBusModel().chipDemandBytesPerSec());
}

TEST(HostBus, TransactionsScaleWithText)
{
    HostBusModel bus;
    const auto small = bus.busTransactions(1000, 8, 8);
    const auto big = bus.busTransactions(2000, 8, 8);
    // Dominated by 3 transfers per text character (pattern beat,
    // text beat, result bit).
    EXPECT_GT(big, small);
    EXPECT_NEAR(static_cast<double>(big - small), 3.0 * 1000, 1.0);
}

TEST(HostBus, SecondsForBeats)
{
    HostBusModel bus(250'000, 8);
    EXPECT_NEAR(bus.secondsForBeats(4'000'000), 1.0, 1e-9);
}

TEST(HostBus, ParameterValidation)
{
    EXPECT_THROW(HostBusModel(0, 8), std::logic_error);
    EXPECT_THROW(HostBusModel(100, 0), std::logic_error);
    EXPECT_THROW(HostBusModel(100, 17), std::logic_error);
}

TEST(HostBus, InvalidConfigurationThrowsInvalidArgument)
{
    EXPECT_THROW(HostBusModel(0, 8), std::invalid_argument);
    EXPECT_THROW(HostBusModel(100, 0), std::invalid_argument);
    EXPECT_THROW(HostBusModel(100, 17), std::invalid_argument);
}

TEST(HostBus, EvenParityBit)
{
    // The parity bit makes the total number of ones even.
    EXPECT_FALSE(HostBusModel::parityBit(0b00, 2));
    EXPECT_TRUE(HostBusModel::parityBit(0b01, 2));
    EXPECT_TRUE(HostBusModel::parityBit(0b10, 2));
    EXPECT_FALSE(HostBusModel::parityBit(0b11, 2));
    // Only payload bits participate.
    EXPECT_FALSE(HostBusModel::parityBit(0b100, 2));
}

TEST(HostBus, ParityBitIsPricedIntoDemand)
{
    HostBusModel plain(prototypeBeatPs, 8, false);
    HostBusModel checked(prototypeBeatPs, 8, true);
    EXPECT_FALSE(plain.parityEnabled());
    EXPECT_TRUE(checked.parityEnabled());
    EXPECT_EQ(plain.busBitsPerChar(), 8u);
    EXPECT_EQ(checked.busBitsPerChar(), 9u);
    EXPECT_GT(checked.chipDemandBytesPerSec(),
              plain.chipDemandBytesPerSec());
    // Same beat clock: the character rate itself is unchanged.
    EXPECT_DOUBLE_EQ(checked.chipCharsPerSec(), plain.chipCharsPerSec());
}

TEST(HostBus, TransferChunkCountsCharacters)
{
    HostBusModel bus(prototypeBeatPs, 8, true);
    bus.transferChunk(3);
    bus.transferChunk(0);
    EXPECT_EQ(bus.charsTransferred(), 3u);
    EXPECT_NE(bus.statsDump().find("hostbus.charsTransferred = 3"),
              std::string::npos);

    bus.resetTransferStats();
    EXPECT_EQ(bus.charsTransferred(), 0u);
}

TEST(HostBus, EraProfilesAreOrdered)
{
    EXPECT_LT(hostPdp11().bandwidthBytesPerSec,
              hostVax780().bandwidthBytesPerSec);
    EXPECT_LT(hostVax780().bandwidthBytesPerSec,
              hostIbm370158().bandwidthBytesPerSec);
}

} // namespace
} // namespace spm::core
