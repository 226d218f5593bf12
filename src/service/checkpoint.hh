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
 * are a BitVec, packed 64 to a word, and each word is mixed into a running
 * digest as it completes, so a commit's digest costs the same at any
 * offset instead of growing with the text emitted so far.
 */

#ifndef SPM_SERVICE_CHECKPOINT_HH
#define SPM_SERVICE_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "util/bitvec.hh"
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
    void emit(const BitVec &bits, std::size_t from, std::size_t to);

    /** Result bits emitted for positions [0, offset). */
    const BitVec &emitted() const { return emittedBits; }

    /**
     * FNV-1a digest for the journal: the completed words, then
     * offset, rung, beats, tail and the partial word. Each word is
     * folded bit-reversed (first bit in the top bit), the order the
     * replay journal has always recorded.
     */
    std::uint64_t digest() const;

  private:
    BitVec emittedBits;
    /** Completed words of emittedBits already folded into wordsDigest. */
    std::size_t foldedWords = 0;
    /** FNV-1a state over the completed words, mixed as each completes. */
    std::uint64_t wordsDigest = 0xCBF29CE484222325ULL;
};

} // namespace spm::service

#endif // SPM_SERVICE_CHECKPOINT_HH
