#include "baselines/fftmatch.hh"

#include <cmath>
#include <numbers>

#include "util/logging.hh"

namespace spm::baselines
{

void
fft(std::vector<std::complex<double>> &a, bool inverse)
{
    const std::size_t n = a.size();
    spm_assert((n & (n - 1)) == 0, "FFT size must be a power of two");
    if (n <= 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }

    for (std::size_t stage = 2; stage <= n; stage <<= 1) {
        const double angle = (inverse ? 2.0 : -2.0) *
                             std::numbers::pi /
                             static_cast<double>(stage);
        const std::complex<double> w_base(std::cos(angle),
                                          std::sin(angle));
        for (std::size_t block = 0; block < n; block += stage) {
            std::complex<double> w(1.0, 0.0);
            for (std::size_t off = 0; off < stage / 2; ++off) {
                const auto u = a[block + off];
                const auto v = a[block + off + stage / 2] * w;
                a[block + off] = u + v;
                a[block + off + stage / 2] = u - v;
                w *= w_base;
            }
        }
    }
    if (inverse) {
        for (auto &v : a)
            v /= static_cast<double>(n);
    }
}

std::vector<double>
crossCorrelate(const std::vector<double> &x, const std::vector<double> &y)
{
    spm_assert(y.size() <= x.size(), "kernel longer than signal");
    std::size_t size = 1;
    while (size < x.size() + y.size())
        size <<= 1;

    std::vector<std::complex<double>> fx(size), fy(size);
    for (std::size_t i = 0; i < x.size(); ++i)
        fx[i] = x[i];
    // Cross-correlation is convolution with the reversed kernel.
    for (std::size_t j = 0; j < y.size(); ++j)
        fy[y.size() - 1 - j] = y[j];

    fft(fx, false);
    fft(fy, false);
    for (std::size_t i = 0; i < size; ++i)
        fx[i] *= fy[i];
    fft(fx, true);

    std::vector<double> out(x.size() - y.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = fx[i + y.size() - 1].real();
    return out;
}

BitVec
FftMatcher::match(const std::vector<Symbol> &text,
                  const std::vector<Symbol> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec r(n);
    if (len == 0 || len > n)
        return r;

    // Encode: wild cards become 0 and drop out of every term; real
    // characters are shifted by one so no character encodes to zero.
    std::vector<double> a(len), b(n);
    for (std::size_t j = 0; j < len; ++j) {
        a[j] = pattern[j] == wildcardSymbol
            ? 0.0
            : static_cast<double>(pattern[j]) + 1.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        spm_assert(text[i] != wildcardSymbol,
                   "wild cards appear only in the pattern");
        b[i] = static_cast<double>(text[i]) + 1.0;
    }

    auto powv = [](const std::vector<double> &v, int e) {
        std::vector<double> out(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = std::pow(v[i], e);
        return out;
    };

    // M(i0) = sum a^3 b - 2 sum a^2 b^2 + sum a b^3.
    const auto t1 = crossCorrelate(b, powv(a, 3));
    const auto t2 = crossCorrelate(powv(b, 2), powv(a, 2));
    const auto t3 = crossCorrelate(powv(b, 3), a);

    for (std::size_t i0 = 0; i0 + len <= n; ++i0) {
        const double mismatch = t1[i0] - 2.0 * t2[i0] + t3[i0];
        if (std::abs(mismatch) < integerThreshold)
            r.set(i0 + len - 1, true);
    }
    return r;
}

} // namespace spm::baselines
