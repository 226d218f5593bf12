/**
 * @file
 * Checkpoints: the resumable state of a streaming match.
 *
 * The array is a sliding-window machine: the only state a resumed
 * match needs from the processed prefix is the last k-1 text
 * characters (the window overlap) and the result bits already
 * emitted. A Checkpoint captures exactly that, cut after every
 * committed chunk, so a killed request restarts from its last chunk
 * boundary instead of re-scanning the whole text -- the restartable
 * windowed processing long-stream workloads need. Its digest() is
 * what the replay journal records at every commit. The emitted bits
 * are kept packed 64 to a word, and each word is mixed into a running
 * digest as it completes, so a commit's digest costs the same at any
 * offset instead of growing with the text emitted so far.
 */

#ifndef SPM_SERVICE_CHECKPOINT_HH
#define SPM_SERVICE_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace spm::service
{

/** Resumable state of a streaming match at a chunk boundary. */
struct Checkpoint
{
    /** Text characters fully processed (result bits emitted). */
    std::size_t offset = 0;
    /** The last min(k-1, offset) processed characters, in order. */
    std::vector<Symbol> tail;
    /** Ladder rung that was serving when the checkpoint was cut. */
    std::size_t rung = 0;
    /** Beats consumed so far (for deadline accounting on resume). */
    Beat beats = 0;

    /** Append bits [from, to) of @p bits to the emitted result. */
    void emit(const std::vector<bool> &bits, std::size_t from,
              std::size_t to);

    /** Make room for @p bits emitted bits in all. */
    void reserveEmitted(std::size_t bits) { words.reserve(bits / 64); }

    /** Result bits emitted for positions [0, offset). */
    std::vector<bool> emitted() const;

    /** How many result bits have been emitted. */
    std::size_t emittedCount() const { return 64 * words.size() + fill; }

    /**
     * FNV-1a digest for the journal: the completed words, then
     * offset, rung, beats, tail and the partial word.
     */
    std::uint64_t digest() const;

  private:
    /** Full words of emitted bits, the first bit in the top bit. */
    std::vector<std::uint64_t> words;
    /** The last fill (< 64) emitted bits, the latest in bit 0. */
    std::uint64_t partial = 0;
    unsigned fill = 0;
    /** FNV-1a state over words, mixed as each one completes. */
    std::uint64_t wordsDigest = 0xCBF29CE484222325ULL;
};

} // namespace spm::service

#endif // SPM_SERVICE_CHECKPOINT_HH
