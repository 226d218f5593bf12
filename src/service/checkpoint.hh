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
 * what the replay journal records at every commit.
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
    /** Result bits emitted for positions [0, offset). */
    std::vector<bool> emitted;
    /** Ladder rung that was serving when the checkpoint was cut. */
    std::size_t rung = 0;
    /** Beats consumed so far (for deadline accounting on resume). */
    Beat beats = 0;

    /** FNV-1a digest over the checkpoint contents, for the journal. */
    std::uint64_t digest() const;
};

} // namespace spm::service

#endif // SPM_SERVICE_CHECKPOINT_HH
