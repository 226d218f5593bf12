#include "core/hostbus.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/logging.hh"

namespace spm::core
{

const HostProfile &
hostPdp11()
{
    static const HostProfile p{"PDP-11/Unibus", 1.0e6};
    return p;
}

const HostProfile &
hostVax780()
{
    static const HostProfile p{"VAX-11/780 SBI", 5.0e6};
    return p;
}

const HostProfile &
hostIbm370158()
{
    static const HostProfile p{"IBM 370/158 channel", 8.0e6};
    return p;
}

HostBusModel::HostBusModel(Picoseconds beat_period_ps, BitWidth char_bits,
                           bool parity_enabled)
    : periodPs(beat_period_ps), bits(char_bits), parity(parity_enabled)
{
    // User-facing configuration errors, not internal invariants: a
    // zero beat period would make every derived rate divide by zero
    // downstream, so reject it loudly at construction.
    if (beat_period_ps == 0)
        throw std::invalid_argument(
            "HostBusModel: beat period must be positive (got 0 ps)");
    if (char_bits < 1 || char_bits > 16)
        throw std::invalid_argument(
            "HostBusModel: character width must be in [1, 16] bits, got " +
            std::to_string(char_bits));
}

bool
HostBusModel::parityBit(Symbol sym, BitWidth char_bits)
{
    const unsigned mask_bits = std::min(char_bits, BitWidth(16));
    const auto payload = static_cast<unsigned>(
        sym & ((1u << mask_bits) - 1u));
    return std::popcount(payload) % 2 != 0;
}

double
HostBusModel::chipCharsPerSec() const
{
    return 1e12 / static_cast<double>(periodPs);
}

double
HostBusModel::chipDemandBytesPerSec() const
{
    const double chars_per_sec = chipCharsPerSec();
    const double bytes_per_char = (busBitsPerChar() + 7) / 8;
    // One character in per beat; one result bit out per two beats.
    return chars_per_sec * bytes_per_char +
           chars_per_sec / 2.0 / 8.0;
}

double
HostBusModel::effectiveTextCharsPerSec(const HostProfile &host) const
{
    const double demand = chipDemandBytesPerSec();
    const double scale =
        std::min(1.0, host.bandwidthBytesPerSec / demand);
    // Half the bus beats carry text characters.
    return chipCharsPerSec() / 2.0 * scale;
}

bool
HostBusModel::chipOutrunsHost(const HostProfile &host) const
{
    return chipDemandBytesPerSec() > host.bandwidthBytesPerSec;
}

std::uint64_t
HostBusModel::busTransactions(std::size_t text_len,
                              std::size_t pattern_len,
                              std::size_t total_cells) const
{
    // The pattern recirculates for the duration of the text: one
    // pattern character per text character, plus the pipeline-fill
    // tail proportional to the array length; one result bit returns
    // per text character.
    const std::uint64_t fill = total_cells + pattern_len;
    return 2 * (static_cast<std::uint64_t>(text_len) + fill) +
           static_cast<std::uint64_t>(text_len);
}

double
HostBusModel::secondsForBeats(Beat beats) const
{
    return static_cast<double>(beats) *
           static_cast<double>(periodPs) * 1e-12;
}

void
HostBusModel::resetTransferStats()
{
    nChars = 0;
}

telem::Snapshot
HostBusModel::metricsSnapshot() const
{
    telem::Snapshot snap;
    snap.setCounter("charsTransferred", nChars);
    snap.setCounter("parityEnabled", parity ? 1 : 0);
    return snap;
}

std::string
HostBusModel::statsDump() const
{
    return metricsSnapshot().renderText("hostbus.");
}

} // namespace spm::core
