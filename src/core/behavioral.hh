/**
 * @file
 * The character-level behavioral chip (Figure 3-3).
 *
 * A linear array of comparator cells on top and accumulator cells on
 * the bottom. The pattern (and its lambda/x control bits) flows left
 * to right, the text string (and the result stream) right to left;
 * every character moves one cell per beat, valid characters occupy
 * alternate cells, and the pattern recirculates with period k+1.
 *
 * BehavioralChip exposes the four stream inputs and four stream
 * outputs of the extensible chip (Section 3.4, Figure 3-7), so chips
 * can be cascaded pin to pin. ChipFeedPlan computes the beat schedule
 * on which the host must drive those pins; BehavioralMatcher wraps a
 * single chip into the Matcher interface.
 */

#ifndef SPM_CORE_BEHAVIORAL_HH
#define SPM_CORE_BEHAVIORAL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cells.hh"
#include "core/matcher.hh"
#include "systolic/engine.hh"
#include "systolic/trace.hh"

namespace spm::core
{

/**
 * Computes what the host feeds on each beat: which pattern character
 * (recirculating), which control bits, which text character, and on
 * which beats results emerge. Shared by all three chip fidelities and
 * by the cascade so that every implementation agrees on the protocol
 * of Figure 3-1.
 */
class ChipFeedPlan
{
  public:
    /**
     * @param num_cells total character cells in the array
     * @param pattern the pattern (wildcardSymbol allowed)
     * @param text_len number of text characters
     */
    ChipFeedPlan(std::size_t num_cells,
                 const std::vector<Symbol> &pattern, std::size_t text_len);

    /** Beats to run so every result has left the array. */
    Beat totalBeats() const { return total; }

    /** Pattern token to force into the pattern input before @p beat. */
    PatToken patternAt(Beat beat) const;

    /** Control token to force into the control input before @p beat. */
    CtlToken controlAt(Beat beat) const;

    /** stringIndex() of a beat on which no character is fed. */
    static constexpr std::size_t noChar = static_cast<std::size_t>(-1);

    /**
     * Text position fed before @p beat, or noChar on the gap beats
     * and once the text is exhausted.
     */
    std::size_t stringIndex(Beat beat) const;

    /**
     * String token for @p beat, reading characters from @p text.
     * Once the text is exhausted the stream carries invalid tokens.
     */
    StrToken stringAt(Beat beat, const std::vector<Symbol> &text) const;

    /** Result-slot token to force into the result input. */
    ResToken resultAt(Beat beat) const;

    /** Text phase offset: s_i is fed before beat 2 i + phase. */
    unsigned textPhase() const { return phi; }

  private:
    std::size_t cells;
    std::vector<Symbol> pat;
    std::size_t textLen;
    unsigned phi;
    Beat total;
};

/**
 * One pattern matching chip at character-level fidelity.
 *
 * The chip owns a systolic::Engine with one comparator and one
 * accumulator per character cell. Inputs are forced into edge latches
 * before each step; outputs are the committed edge-cell latches, so a
 * cascade can copy them to a neighbor chip's inputs with the same
 * one-beat pin discipline the silicon would have.
 */
class BehavioralChip
{
  public:
    /** Comparator implementation to instantiate per cell. */
    enum class CellVariant
    {
        Plain,        ///< single comparator (the paper's cell)
        SelfChecking, ///< duplicated comparator with mismatch check
    };

    /**
     * @param num_cells character cells on this chip; the chip matches
     *        patterns of length up to num_cells (Section 3.4)
     * @param beat_period_ps simulated beat period
     * @param variant comparator variant; SelfChecking duplicates the
     *        comparison per cell and counts divergences
     */
    explicit BehavioralChip(std::size_t num_cells,
                            Picoseconds beat_period_ps = prototypeBeatPs,
                            CellVariant variant = CellVariant::Plain);

    std::size_t cellCount() const { return numCells; }

    /** @{ Input pins, forced by the host (or left neighbor) per beat. */
    void feedPattern(const PatToken &tok) { pIn.force(tok); }
    void feedControl(const CtlToken &tok) { ctlIn.force(tok); }
    void feedString(const StrToken &tok) { sIn.force(tok); }
    void feedResult(const ResToken &tok) { rIn.force(tok); }
    /** @} */

    /** Advance one beat. */
    void step() { eng.step(); }

    /** @{ Output pins: committed edge-cell latches. */
    PatToken patternOut() const;
    CtlToken controlOut() const;
    StrToken stringOut() const;
    ResToken resultOut() const;
    /** @} */

    /** The underlying engine (stats, clock, tracing). */
    systolic::Engine &engine() { return eng; }
    const systolic::Engine &engine() const { return eng; }

    /**
     * Divergences seen by self-checking comparators so far; always 0
     * for the Plain variant.
     */
    std::uint64_t selfCheckMismatches() const;

    /**
     * Engine cell index of the comparator (@p comparator true) or
     * accumulator of character cell @p c -- the addressing fault
     * models use to reach a cell's latches.
     */
    std::size_t cellIndex(std::size_t c, bool comparator) const;

    /** Attach a Figure 3-2 style trace recorder. */
    void attachTrace(systolic::TraceRecorder *rec)
    {
        eng.attachTrace(rec);
    }

  private:
    std::size_t numCells;
    systolic::Engine eng;
    systolic::Latch<PatToken> pIn;
    systolic::Latch<CtlToken> ctlIn;
    systolic::Latch<StrToken> sIn;
    systolic::Latch<ResToken> rIn;
    std::vector<CharComparatorCell *> comparators;
    std::vector<AccumulatorCell *> accumulators;
};

/**
 * Matcher interface over a single behavioral chip. A fresh chip is
 * instantiated per match() call, sized to @p num_cells (or, when 0,
 * to the pattern length).
 */
class BehavioralMatcher : public Matcher
{
  public:
    explicit BehavioralMatcher(std::size_t num_cells = 0)
        : cells(num_cells)
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override { return "systolic-behavioral"; }

    /** Beats consumed by the last match() call. */
    Beat lastBeats() const { return beatsUsed; }

  private:
    std::size_t cells;
    Beat beatsUsed = 0;
};

/**
 * Drive one (or a pre-wired chain of) chip(s) through a full match,
 * collecting the result stream. Factored out so the cascade reuses
 * the identical host protocol.
 *
 * @param feed functions invoked before each beat to force host-driven
 *        pins, and a step function advancing all chips one beat
 */
struct ChipHooks
{
    std::function<void(const PatToken &, const CtlToken &,
                       const StrToken &, const ResToken &)> feedInputs;
    std::function<void()> step;
    std::function<ResToken()> resultOut;
};

/**
 * Run the Figure 3-1 protocol: feed pattern (recirculating), control,
 * text, and empty result slots; collect one result bit per text
 * character. Results for incomplete substrings (i < k) are false.
 *
 * @return pair of (result bits, beats consumed)
 */
std::pair<BitVec, Beat> runMatchProtocol(
    const ChipHooks &hooks, std::size_t total_cells,
    const std::vector<Symbol> &text, const std::vector<Symbol> &pattern);

} // namespace spm::core

#endif // SPM_CORE_BEHAVIORAL_HH
