/**
 * @file
 * Fischer-Paterson style wild card matching via convolution.
 *
 * "The fastest algorithm known for string matching with wild card
 * characters is based on multiplication of large integers [Fischer
 * and Paterson 74], and requires more than linear time" (Section
 * 3.1). This is that algorithm in its modern FFT form: encode wild
 * cards as zero and evaluate, for every alignment, the mismatch sum
 *
 *     M(i0) = sum_j a_j * b_{i0+j} * (a_j - b_{i0+j})^2
 *           = sum a^3 b  -  2 sum a^2 b^2  +  sum a b^3
 *
 * which is zero exactly when the pattern matches. Three cross
 * correlations, each one FFT-sized pass: O(n log n) total, the
 * superlinear software comparator the systolic chip beats.
 */

#ifndef SPM_BASELINES_FFTMATCH_HH
#define SPM_BASELINES_FFTMATCH_HH

#include <complex>
#include <vector>

#include "core/matcher.hh"

namespace spm::baselines
{

/** In-place iterative radix-2 FFT; size must be a power of two. */
void fft(std::vector<std::complex<double>> &a, bool inverse);

/**
 * Cross-correlation c[i] = sum_j x[i + j] * y[j] for
 * i = 0 .. |x| - |y|, computed with FFTs.
 */
std::vector<double> crossCorrelate(const std::vector<double> &x,
                                   const std::vector<double> &y);

/** FFT-based wild card matcher. */
class FftMatcher : public core::Matcher
{
  public:
    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "fischer-paterson-fft"; }

  private:
    static constexpr double integerThreshold = 0.5;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_FFTMATCH_HH
