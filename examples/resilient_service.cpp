/**
 * @file
 * Serving-layer walkthrough: the resilient streaming match service.
 *
 * Five scenes in front of the 8-cell prototype:
 *   1. a clean streaming request -- chunked over the bus, checkpointed
 *      at every chunk, answered by the primary rung;
 *   2. a malformed request -- refused at the door with a typed error,
 *      no hardware touched;
 *   3. a wedged backend -- the beat-budget watchdog cancels it and
 *      the ladder degrades to the next rung;
 *   4. a fault-injected chip -- the cross-check catches the lie and
 *      the request finishes on the software floor, still correct;
 *   5. a killed request -- resumed from its last checkpoint,
 *      bit-identical to an uninterrupted run.
 */

#include <cstdio>
#include <memory>

#include "core/reference.hh"
#include "fault/injector.hh"
#include "fault/model.hh"
#include "service/service.hh"
#include "util/rng.hh"

namespace
{

using namespace spm;
using namespace spm::service;

/** A backend that never answers: stands in for a hung device. */
class HungBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "hung-device"; }

    WindowResult matchWindow(const std::vector<Symbol> &,
                             const std::vector<Symbol> &,
                             BeatWatchdog &dog) override
    {
        WindowResult wr;
        while (dog.tick(1))
            ++wr.beats;
        wr.note = "no result ever emerged";
        return wr;
    }
};

MatchRequest
exampleRequest(std::uint64_t id)
{
    WorkloadGen gen(0x5EED + id, 2);
    MatchRequest req;
    req.id = id;
    req.pattern = gen.randomPattern(4, 0.25);
    req.text = gen.textWithPlants(96, req.pattern, 9);
    return req;
}

void
describe(const char *tag, const MatchResponse &resp)
{
    if (resp.ok()) {
        std::printf("%s request %llu completed on %s: %zu matches, "
                    "%zu chunks (one checkpoint each), %zu degradations, "
                    "%llu beats\n",
                    tag, static_cast<unsigned long long>(resp.id),
                    resp.backend.c_str(), resp.result.popcount(),
                    resp.chunks, resp.degradations,
                    static_cast<unsigned long long>(resp.beats));
    } else {
        std::printf("%s request %llu failed: %s\n", tag,
                    static_cast<unsigned long long>(resp.id),
                    resp.error.toString().c_str());
    }
}

} // namespace

int
main()
{
    ServiceConfig cfg;
    cfg.cells = 8; // the fabricated prototype
    cfg.alphabetBits = 2;
    cfg.chunkChars = 24;

    // Scene 1: a clean request through the default ladder
    // (gate level -> behavioral -> software).
    {
        MatchService svc(cfg);
        std::printf("ladder:");
        for (const auto &name : svc.ladderNames())
            std::printf(" %s", name.c_str());
        std::printf("\n\n");
        describe("1.", svc.serve(exampleRequest(1)));
    }

    // Scene 2: a malformed request never reaches the hardware.
    {
        MatchService svc(cfg);
        MatchRequest bad = exampleRequest(2);
        bad.text[5] = 9; // outside the 2-bit alphabet
        describe("2.", svc.serve(bad));
    }

    // Scene 3: the primary rung hangs; the watchdog pulls the plug.
    {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<HungBackend>());
        ladder.push_back(std::make_unique<BehavioralBackend>(cfg.cells));
        ladder.push_back(std::make_unique<SoftwareBackend>());
        MatchService svc(cfg, std::move(ladder));
        const MatchResponse resp = svc.serve(exampleRequest(3));
        describe("3.", resp);
        std::printf("   watchdog trips: %llu (the hung rung was "
                    "cancelled, not waited on)\n",
                    static_cast<unsigned long long>(resp.watchdogTrips));
    }

    // Scene 4: a stuck-at fault makes the chip lie; the cross-check
    // refuses to publish the lie and the floor answers instead.
    {
        fault::FaultInjector inj(cfg.alphabetBits);
        fault::Fault f;
        f.kind = fault::FaultKind::StuckAt1;
        f.point = systolic::FaultPoint::CompareLatch;
        f.cell = 1;
        inj.addFault(f);

        auto faulty = std::make_unique<BehavioralBackend>(cfg.cells);
        faulty->setChipPrep([&inj](core::BehavioralChip &chip) {
            inj.attach(chip.engine(), fault::behavioralResolver(chip));
        });
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::move(faulty));
        ladder.push_back(std::make_unique<SoftwareBackend>());
        MatchService svc(cfg, std::move(ladder));

        const MatchRequest req = exampleRequest(4);
        const MatchResponse resp = svc.serve(req);
        describe("4.", resp);
        const bool correct =
            resp.ok() &&
            resp.result ==
                core::ReferenceMatcher().match(req.text, req.pattern);
        std::printf("   cross-check catches: %llu, injections landed: "
                    "%llu, final result %s\n",
                    static_cast<unsigned long long>(
                        resp.crossCheckFailures),
                    static_cast<unsigned long long>(inj.injections()),
                    correct ? "matches the reference"
                            : "WRONG (should never happen)");
    }

    // Scene 5: kill a stream mid-flight, resume from the checkpoint.
    {
        const MatchRequest req = exampleRequest(5);
        MatchService golden(cfg);
        const MatchResponse uninterrupted = golden.serve(req);

        MatchService svc(cfg);
        StreamSession session = svc.startSession(req);
        session.step();
        session.step(); // two chunks committed, then the plug is pulled
        const Checkpoint cp = session.checkpoint();
        session.cancel("operator abort");
        describe("5.", session.finish());

        MatchService fresh(cfg);
        const MatchResponse resumed = fresh.resume(req, cp);
        describe("  ", resumed);
        std::printf("   resumed from offset %zu; output %s the "
                    "uninterrupted run\n",
                    cp.offset,
                    resumed.ok() && resumed.result == uninterrupted.result
                        ? "bit-identical to"
                        : "DIFFERS from (should never happen)");
    }

    std::printf("\nThe serving layer composes the repo's layers: the "
                "bus paces and parity-checks\nthe stream, the watchdog "
                "bounds every window in beats, checkpoints make the\n"
                "stream restartable, and the ladder trades fidelity "
                "for availability without\never trading away "
                "correctness.\n");
    return 0;
}
