/**
 * @file
 * The pattern matcher's cells at the behavioral level.
 *
 * Section 3.2.1 splits each character cell into two modules: a
 * comparator (pattern and string streams flowing in opposite
 * directions, comparison result flowing down) and an accumulator
 * (end-of-pattern bit lambda and don't-care bit x flowing with the
 * pattern, results flowing with the string). This file implements
 * those cell algorithms verbatim over validity-tagged tokens, plus the
 * single-bit comparator of Figure 3-4 used by the bit-serial pipeline.
 *
 * Cells are connected to the latched outputs of their neighbors (or to
 * chip input latches) after construction, mirroring how the layout
 * step wires abutting cells.
 */

#ifndef SPM_CORE_CELLS_HH
#define SPM_CORE_CELLS_HH

#include <cstdint>
#include <string>

#include "systolic/cell.hh"
#include "systolic/latch.hh"
#include "util/types.hh"

namespace spm::core
{

/** A pattern character moving left to right through the comparators. */
struct PatToken
{
    Symbol sym = 0;
    bool valid = false;

    bool operator==(const PatToken &) const = default;
};

/** A text character moving right to left through the comparators. */
struct StrToken
{
    Symbol sym = 0;
    bool valid = false;

    bool operator==(const StrToken &) const = default;
};

/**
 * The pattern-side control pair moving through the accumulators:
 * lambda marks the last pattern character, x marks wild cards.
 */
struct CtlToken
{
    bool lambda = false;
    bool x = false;
    bool valid = false;

    bool operator==(const CtlToken &) const = default;
};

/** A result bit moving right to left with the string. */
struct ResToken
{
    bool value = false;
    bool valid = false;

    bool operator==(const ResToken &) const = default;
};

/** A comparison result moving down from comparator to accumulator. */
struct DToken
{
    bool value = false;
    bool valid = false;

    bool operator==(const DToken &) const = default;
};

/** A single bit of a character in the bit-serial pipeline. */
struct BitToken
{
    bool bit = false;
    bool valid = false;

    bool operator==(const BitToken &) const = default;
};

/**
 * Character-level comparator cell (Section 3.2.1):
 *
 *     pOut <- pIn
 *     sOut <- sIn
 *     dOut <- (pIn = sIn)
 *
 * The wild card is not resolved here; the x bit flowing through the
 * accumulator below overrides the comparison (Section 3.2.1).
 */
class CharComparatorCell : public systolic::CellBase
{
  public:
    CharComparatorCell(std::string cell_name, unsigned parity);

    /** Wire the cell to its left (pattern) and right (string) feeds. */
    void connect(const systolic::Latch<PatToken> *p_src,
                 const systolic::Latch<StrToken> *s_src);

    void evaluate(Beat beat) override;
    void commit() override;
    std::string stateString() const override;
    bool applyFault(systolic::FaultPoint point, systolic::FaultOp op,
                    unsigned bit) override;

    const systolic::Latch<PatToken> &pOut() const { return p; }
    const systolic::Latch<StrToken> &sOut() const { return s; }
    const systolic::Latch<DToken> &dOut() const { return d; }

    /** Mismatches seen by a self-checking variant; 0 for this cell. */
    virtual std::uint64_t selfCheckMismatches() const { return 0; }

  protected:
    const systolic::Latch<PatToken> *pSrc = nullptr;
    const systolic::Latch<StrToken> *sSrc = nullptr;
    systolic::Latch<PatToken> p;
    systolic::Latch<StrToken> s;
    systolic::Latch<DToken> d;
};

/**
 * Self-checking comparator variant (duplicated-comparator detection):
 * the d computation is carried twice, on the primary latch the
 * neighbors read and on an internal shadow latch, and the two copies
 * are compared at the start of every beat -- after any fault has had
 * the chance to corrupt the committed primary. A divergence means the
 * comparator (or its output latch) is lying, and is counted rather
 * than masked. Faults land only on the primary copy: the shadow
 * models physically separate duplicated hardware.
 */
class SelfCheckingComparatorCell : public CharComparatorCell
{
  public:
    SelfCheckingComparatorCell(std::string cell_name, unsigned parity);

    void evaluate(Beat beat) override;
    void commit() override;
    bool applyFault(systolic::FaultPoint point, systolic::FaultOp op,
                    unsigned bit) override;

    std::uint64_t selfCheckMismatches() const override
    {
        return mismatches;
    }

  private:
    systolic::Latch<DToken> dShadow;
    std::uint64_t mismatches = 0;
};

/**
 * Single-bit comparator cell (Figure 3-4): one bit of the pattern
 * flows left to right, one bit of the string right to left, and the
 * partial comparison result for the character pair flows top to
 * bottom, ANDing in this bit position:
 *
 *     pOut <- pIn
 *     sOut <- sIn
 *     dOut <- dIn AND (pIn = sIn)
 */
class BitComparatorCell : public systolic::CellBase
{
  public:
    BitComparatorCell(std::string cell_name, unsigned parity);

    /** Wire to the left/right bit feeds and the cell above. */
    void connect(const systolic::Latch<BitToken> *p_src,
                 const systolic::Latch<BitToken> *s_src,
                 const systolic::Latch<DToken> *d_src);

    void evaluate(Beat beat) override;
    void commit() override;
    std::string stateString() const override;
    bool applyFault(systolic::FaultPoint point, systolic::FaultOp op,
                    unsigned bit) override;

    const systolic::Latch<BitToken> &pOut() const { return p; }
    const systolic::Latch<BitToken> &sOut() const { return s; }
    const systolic::Latch<DToken> &dOut() const { return d; }

  private:
    const systolic::Latch<BitToken> *pSrc = nullptr;
    const systolic::Latch<BitToken> *sSrc = nullptr;
    const systolic::Latch<DToken> *dSrc = nullptr;
    systolic::Latch<BitToken> p;
    systolic::Latch<BitToken> s;
    systolic::Latch<DToken> d;
};

/**
 * Accumulator cell (Section 3.2.1): maintains the temporary result t
 * and, at the end of the pattern, uses it to replace the result
 * flowing right to left:
 *
 *     lambdaOut <- lambdaIn
 *     xOut      <- xIn
 *     IF lambdaIn THEN rOut <- t AND (xIn OR dIn); t <- TRUE
 *     ELSE            rOut <- rIn;  t <- t AND (xIn OR dIn)
 *
 * The lambda-beat comparison participates in the output so that all
 * k+1 pattern positions contribute exactly once between pattern
 * recirculations (see DESIGN.md on the published pseudo-code's
 * ambiguity here). The validity of the result slot is inherited from
 * the incoming result stream: the lambda write replaces the *value*
 * riding with the last character of its substring.
 */
class AccumulatorCell : public systolic::CellBase
{
  public:
    AccumulatorCell(std::string cell_name, unsigned parity);

    /** Wire to the control, result and comparator feeds. */
    void connect(const systolic::Latch<CtlToken> *ctl_src,
                 const systolic::Latch<ResToken> *r_src,
                 const systolic::Latch<DToken> *d_src);

    void evaluate(Beat beat) override;
    void commit() override;
    std::string stateString() const override;
    bool applyFault(systolic::FaultPoint point, systolic::FaultOp op,
                    unsigned bit) override;

    const systolic::Latch<CtlToken> &ctlOut() const { return ctl; }
    const systolic::Latch<ResToken> &rOut() const { return r; }

  private:
    const systolic::Latch<CtlToken> *ctlSrc = nullptr;
    const systolic::Latch<ResToken> *rSrc = nullptr;
    const systolic::Latch<DToken> *dSrc = nullptr;
    systolic::Latch<CtlToken> ctl;
    systolic::Latch<ResToken> r;
    systolic::Latch<bool> t{true};
};

} // namespace spm::core

#endif // SPM_CORE_CELLS_HH
