/**
 * @file
 * The dictionary (multi-pattern) serving path.
 *
 * The streaming service matches one pattern per request; this front
 * end serves the rule-set scenario the hardware co-design literature
 * scales the Foster-Kung data flow to: a whole dictionary checked
 * against every text chunk, with per-pattern hit reporting.  A
 * session binds a validated dictionary once; the bit-sliced engine
 * compiles its suffix trie on the session's first chunk and reuses it
 * while the dictionary is unchanged, and each chunk costs one
 * transpose, one equality mask per character class and one blocked
 * trie walk on the SIMD kernel's ops.  Chunks stream through with
 * whole-stream semantics, bit-identical to one-shot matching of the
 * concatenated text: the engine writes each chunk's hit rows straight
 * from its packed words, starting past the carried tail, and counts
 * the hits as it writes them.
 *
 * Serving-layer contract, same as the siblings: typed validation
 * (DictError names the offending dictionary member), every admitted
 * character charged through the host bus model, and telemetry that
 * capacity planning can read (dictionary-size / hits-per-chunk /
 * planes-per-sweep histograms).  An optional sampled cross-check
 * replays chunks through the naive per-pattern reference.
 */

#ifndef SPM_SERVICE_DICTSERVE_HH
#define SPM_SERVICE_DICTSERVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "multipattern/dict.hh"
#include "multipattern/planes.hh"
#include "service/service.hh"

namespace spm::service
{

/** Configuration of the dictionary serving path. */
struct DictServiceConfig
{
    /** Bounds, alphabet and bus shared with the other front ends. */
    FrontEndConfig base;
    /**
     * Replay every Nth chunk through the naive per-pattern reference
     * and compare bit for bit (0 disables).
     */
    unsigned crossCheckEvery = 0;
};

/**
 * A typed dictionary-path error: the ServiceError names the violated
 * contract; patternIndex pins it to the offending member when one
 * member (not the dictionary shape or a chunk) is at fault.
 */
struct DictError
{
    static constexpr std::size_t noPattern = static_cast<std::size_t>(-1);

    ServiceError error;
    std::size_t patternIndex = noPattern;

    bool ok() const { return error.code == ErrorCode::Ok; }
    explicit operator bool() const { return !ok(); }

    /** "dict[i]: <code_name>: <detail>" (bare error when no index). */
    std::string toString() const;

    static DictError okValue() { return {}; }
    static DictError make(ServiceError err,
                          std::size_t pattern_index = noPattern)
    {
        return {std::move(err), pattern_index};
    }
};

class DictMatchService;

/** One dictionary bound to a chunk stream; host-side handle. */
class DictSession
{
  public:
    /** True once openSession validated the dictionary. */
    bool open() const { return !dict.empty(); }
    std::uint64_t streamed() const { return stream.seen; }

  private:
    friend class DictMatchService;
    multipattern::DictPatterns dict;
    multipattern::DictStreamState stream;
    std::uint64_t chunksFed = 0;
};

/**
 * The dictionary match service. stats(): counters dictionaries,
 * chunks, chunkChars, hits, rejected, crossChecks,
 * crossCheckFailures; histograms dict_size (members per session),
 * hits_per_chunk, planes_per_sweep (bit planes the engine built per
 * chunk); statsDump() prints them as "dict.x = n". An exemplar is one
 * chunk; its case names dictionary member 0 against the chunk (the
 * conformance case format is single-pattern).
 */
class DictMatchService : public FrontEnd
{
  public:
    explicit DictMatchService(DictServiceConfig config);

    const DictServiceConfig &config() const { return cfg; }

    /**
     * Typed dictionary admission (at most 4096 members); Ok when
     * every member is valid.
     */
    DictError validateDict(const multipattern::DictPatterns &dict) const;

    /** Result of one feedChunk() call. */
    struct ChunkResult
    {
        /** Typed error; hits are valid only when ok(). */
        DictError error;
        /** Per-pattern hit bits for exactly the new chunk positions. */
        multipattern::DictHits hits;
        /** Set bits in hits, counted by the engine as it wrote them. */
        std::uint64_t totalHits = 0;

        bool ok() const { return error.ok(); }
    };

    /**
     * Open a session against @p dict.  The dictionary is validated
     * here, once; @p err receives the typed result.
     */
    DictSession openSession(multipattern::DictPatterns dict,
                            DictError &err);

    /**
     * Feed the next chunk of the session's text stream.  Results have
     * whole-stream semantics: a member straddling the chunk boundary
     * reports at its true end position, bit-identical to one-shot
     * matching of the concatenated stream.
     *
     * @param enqueued_ns optional telem::nowNs() stamp taken when the
     *        host queued this chunk; the wait is credited to the
     *        queue-wait stage histogram (0 charges no wait)
     */
    ChunkResult feedChunk(DictSession &session,
                          const std::vector<Symbol> &chunk,
                          std::uint64_t enqueued_ns = 0);

  private:
    DictServiceConfig cfg;
    multipattern::BitSlicedDictMatcher engine;

    telem::Counter &dictionariesCtr;
    telem::Counter &chunksCtr;
    telem::Counter &chunkCharsCtr;
    telem::Counter &hitsCtr;
    telem::Counter &crossChecksCtr;
    telem::Counter &crossCheckFailuresCtr;
    telem::LogHistogram &dictSizeHist;
    telem::LogHistogram &hitsPerChunkHist;
    telem::LogHistogram &planesPerSweepHist;
};

} // namespace spm::service

#endif // SPM_SERVICE_DICTSERVE_HH
