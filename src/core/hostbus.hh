/**
 * @file
 * The host interface model (Figure 1-1 and Figure 3-1).
 *
 * The chip is a peripheral on a conventional host: "The pattern and
 * the text string arrive alternately over the bus one character at a
 * time" and "the data streams move at a steady rate ... with a
 * constant time between data items." This module models that bus: the
 * chip-side demand (one character per beat), the host-side supply
 * (memory bandwidth), and the resulting end-to-end throughput -- the
 * numbers behind the paper's claim that one character every 250 ns "is
 * higher than the memory bandwidth of most conventional computers."
 */

#ifndef SPM_CORE_HOSTBUS_HH
#define SPM_CORE_HOSTBUS_HH

#include <cstdint>
#include <string>

#include "telemetry/metrics.hh"
#include "util/types.hh"

namespace spm::core
{

/** Static description of a host computer's memory system. */
struct HostProfile
{
    std::string name;
    double bandwidthBytesPerSec;
};

/** A few representative host machines of the paper's era. */
const HostProfile &hostPdp11();     ///< ~1 MB/s Unibus-class
const HostProfile &hostVax780();    ///< ~5 MB/s SBI-class
const HostProfile &hostIbm370158(); ///< ~8 MB/s channel-class

/**
 * Models the bus between a host and a pattern matcher (single chip or
 * cascade). All rates are derived, not simulated; the cycle-accurate
 * simulators provide the beat counts this model prices.
 */
class HostBusModel
{
  public:
    /**
     * @param beat_period_ps chip beat period (250 ns prototype);
     *        must be positive
     * @param char_bits bits per character on the bus, in [1, 16]
     * @param parity_enabled when true, every bus character carries an
     *        even-parity bit so single-bit corruption in transit is
     *        detectable; the extra bit is priced into the demand
     *
     * @throws std::invalid_argument on a zero beat period or a
     *         character width outside [1, 16]
     */
    explicit HostBusModel(Picoseconds beat_period_ps = prototypeBeatPs,
                          BitWidth char_bits = 8,
                          bool parity_enabled = false);

    /** Characters per second the chip consumes (one per beat). */
    double chipCharsPerSec() const;

    /**
     * Bytes per second the chip-side protocol demands of the host:
     * one character per beat in, plus one result bit per two beats
     * out (results ride back interleaved with the input streams).
     */
    double chipDemandBytesPerSec() const;

    /**
     * Text characters per second actually processed when the chip is
     * attached to @p host: the slower of chip demand and host supply,
     * folded back to the text stream (half the bus beats carry text).
     */
    double effectiveTextCharsPerSec(const HostProfile &host) const;

    /** True when the chip outruns the host's memory system. */
    bool chipOutrunsHost(const HostProfile &host) const;

    /**
     * Total bus transactions for a match of @p text_len characters
     * with a pattern of @p pattern_len on an array of
     * @p total_cells cells: pattern feeds (recirculating), text
     * feeds, and result transfers.
     */
    std::uint64_t busTransactions(std::size_t text_len,
                                  std::size_t pattern_len,
                                  std::size_t total_cells) const;

    /** Wall-clock seconds for @p beats chip beats. */
    double secondsForBeats(Beat beats) const;

    Picoseconds beatPeriod() const { return periodPs; }

    /** Whether bus characters carry a parity bit. */
    bool parityEnabled() const { return parity; }

    /** Bits actually moved per bus character (payload + parity). */
    BitWidth busBitsPerChar() const { return bits + (parity ? 1 : 0); }

    /**
     * Even-parity bit for @p sym over @p char_bits payload bits: the
     * bit that makes the total number of ones even. This is what the
     * host computes on feed and the far edge recomputes on exit.
     */
    static bool parityBit(Symbol sym, BitWidth char_bits);

    /**
     * One end-to-end character transfer: the host computes the parity
     * bit on @p sent at the near edge; the far edge recomputes it on
     * @p received, the character as it actually arrived. A mismatch
     * (any odd number of payload bits corrupted in transit) counts a
     * parity error. With parity disabled the transfer is counted but
     * unchecked -- corruption rides through, which is exactly the
     * exposure the parity bit is priced to remove.
     *
     * @return true when the transfer checked clean (or is unchecked)
     */
    bool transferChar(Symbol sent, Symbol received);

    /**
     * Batched end-to-end transfer of @p n characters: the counter and
     * telemetry charges of n transferChar() calls amortized into one
     * update. When @p sent and @p received alias (a loopback
     * transfer, the serving layer's common case) the per-character
     * parity recomputation is skipped outright -- bit-identical
     * outcome, since equal characters always parity-match.
     *
     * @return parity mismatches detected (0 when clean or unchecked)
     */
    std::uint64_t transferChunk(const Symbol *sent,
                                const Symbol *received, std::size_t n);

    /** Characters moved through transferChar()/transferChunk() so far. */
    std::uint64_t charsTransferred() const { return nChars; }

    /** Parity mismatches detected so far. */
    std::uint64_t parityErrors() const { return nParityErrors; }

    /** Reset the transfer counters (new measurement interval). */
    void resetTransferStats();

    /**
     * The transfer counters as a telemetry snapshot (bare names;
     * parityEnabled rides along as a 0/1 counter so one snapshot
     * carries the whole bus state). The model stays a plain copyable
     * value -- ServiceConfig embeds one by value -- so the counters
     * live here and are only *rendered* through the registry types.
     */
    telem::Snapshot metricsSnapshot() const;

    /** "hostbus.x = n" stat lines for the transfer counters. */
    std::string statsDump() const;

  private:
    Picoseconds periodPs;
    BitWidth bits;
    bool parity;
    std::uint64_t nChars = 0;
    std::uint64_t nParityErrors = 0;
};

} // namespace spm::core

#endif // SPM_CORE_HOSTBUS_HH
