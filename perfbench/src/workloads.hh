/**
 * @file
 * The benchmark's workloads and what one pass of each computes.
 *
 * Every workload runs serial (one sweep thread, one solver thread)
 * with the solver's wall-clock budget and the engine's per-point
 * deadline out of reach, so node budgets and the 10% target gap alone
 * end each solve: the work is identical from run to run at one seed.
 *
 *  - explore: the Figure 7 design space (372 SoCs) under HILP in
 *    exploration mode with cross-config reuse on.
 *  - packing: the same 372 SoCs under Gables (dependency-free,
 *    power-unconstrained instances; the reuse layer is bypassed).
 *  - deep: validation mode on the Optimized workload, a 64-SM GPU
 *    with 1/2/4/8 CPUs under HILP and Gables, 100k nodes per solve
 *    and one 4x escalation.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/soc.hh"
#include "dse/explore.hh"
#include "hilp/engine.hh"
#include "hilp/problem.hh"
#include "hilp/schedule.hh"
#include "spans.hh"
#include "workload/workload.hh"

namespace perfbench {

enum class Kind { Explore, Packing, Deep };

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind *out);
const char *toString(Kind kind);

/** Everything a workload builds before its first timed evaluation. */
struct Setup
{
    Kind kind = Kind::Explore;
    hilp::workload::Workload workload;
    std::vector<hilp::arch::SocConfig> configs;
    hilp::arch::Constraints constraints;
    /** Sweep options; deep uses its engine and build fields. */
    hilp::dse::DseOptions options;
    /** The models each configuration is evaluated under. */
    std::vector<hilp::dse::ModelKind> models;
};

/**
 * Build a workload's inputs. The seed goes into SolverOptions::seed;
 * max_configs > 0 keeps an evenly spaced subset of that many
 * configurations (tests use a tiny design space).
 */
Setup makeSetup(Kind kind, uint64_t seed, size_t max_configs);

/** One evaluation: a configuration under one model. */
struct Evaluation
{
    hilp::arch::SocConfig config;
    hilp::dse::ModelKind model = hilp::dse::ModelKind::Hilp;
    bool ok = false;
    bool degraded = false;
    bool errored = false;
    double makespanS = 0.0;
    double gap = 0.0;
    double areaMm2 = 0.0;
    double speedup = 0.0;
    int64_t nodes = 0;
    int solves = 0;
    double solveSeconds = 0.0;
    bool cacheHit = false;
    bool warmStarted = false;
    bool pruned = false;
    uint64_t fingerprint = 0;
    /** Final time step (0 until attachResults for explore). */
    double stepS = 0.0;
    std::vector<hilp::cp::PropagatorStats> propagators;
    /** The schedule, kept for the replay check. */
    hilp::Schedule schedule;

    /** "<model> <config label>", unique within a workload. */
    std::string label() const;
};

/**
 * One timed pass over the workload: a serial exploreSpace sweep for
 * explore, handed `memo` as its solve memo (the sweep would otherwise
 * make an identical private one); one engine call per evaluation for
 * packing and deep. A Gables sweep bypasses every reuse layer, so each
 * of its points is exactly one engine call, made here the same way.
 */
std::vector<Evaluation> runPass(const Setup &setup, hilp::SolveMemo &memo);

/**
 * Fill each explore evaluation's final step and schedule from the
 * memo its sweep ran with, after the clock stops (packing and deep
 * passes fill them in themselves).
 */
void attachResults(const Setup &setup, hilp::SolveMemo &memo,
                   std::vector<Evaluation> &evals);

/**
 * The traced pass: the same evaluations with spans around each public
 * call, and each evaluation's final time step filled in.
 */
std::vector<Evaluation> runTracedPass(const Setup &setup, SpanLog &spans);

/**
 * The spec an evaluation solved: buildProblem, then the Gables rewrite
 * under Gables. False when the built spec does not validate.
 */
bool lowerSpec(const Setup &setup, const hilp::arch::SocConfig &config,
               hilp::dse::ModelKind model, hilp::ProblemSpec *out);

/** The warm-up evaluation every set-up ends with. */
void warmUp(const Setup &setup);

/** Quality of one pass, exact for a given seed. */
struct Quality
{
    int evaluations = 0;
    int failed = 0;       //!< Not ok, errored or degraded.
    int overTarget = 0;   //!< Certified gap above 10%.
    int frontOverTarget = 0;
    double gapMax = 0.0;
};

Quality summarize(const std::vector<Evaluation> &evals);

/** Per-evaluation digests of node counts, solve counts and gaps. */
std::vector<std::string> digests(const std::vector<Evaluation> &evals);

/**
 * Correctness of one pass; returns one message per violation. A sweep
 * point solved at its reference point's time step must have a
 * certified interval [makespan*(1-gap), makespan] intersecting the
 * reference interval. A certificate holds only for the instance
 * discretized at its own step, so a point solved at another step, and
 * every deep evaluation, must instead replay clean in
 * sim::replaySchedule at the reported makespan.
 */
std::vector<std::string> checkPass(const Setup &setup,
                                   const std::vector<Evaluation> &evals,
                                   const hilp::Json *reference);

/** The reference file contents for a pass (sweep workloads). */
hilp::Json referenceJson(const Setup &setup,
                         const std::vector<Evaluation> &evals);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
