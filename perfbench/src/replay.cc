#include "replay.hh"

#include <set>
#include <utility>

#include "baselines/gables.hh"
#include "cp/bounds.hh"
#include "cp/list_scheduler.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "support/hash.hh"

namespace perfbench {

using namespace hilp;

namespace {

double
gapOf(cp::Time makespan, cp::Time lower_bound)
{
    if (makespan <= 0)
        return 0.0;
    return static_cast<double>(makespan - lower_bound) /
           static_cast<double>(makespan);
}

/**
 * The solver options the engine hands Solver::solve for this spec: the
 * engine salts the heuristic seed with the instance fingerprint, and
 * the solver mixes that salt into its seed.
 */
cp::SolverOptions
engineSolverOptions(const Setup &setup, const ProblemSpec &spec,
                    uint64_t *heuristic_seed)
{
    cp::SolverOptions options = setup.options.engine.solver;
    Hasher salt;
    salt.u64(options.seedSalt);
    salt.u64(spec.fingerprint());
    options.seedSalt = salt.digest();
    Hasher seed;
    seed.u64(options.seed);
    seed.u64(options.seedSalt);
    *heuristic_seed = seed.digest();
    return options;
}

} // anonymous namespace

ReplayCounts
replayStages(const Setup &setup, const std::vector<Evaluation> &evals,
             SpanLog &spans)
{
    ReplayCounts counts;
    std::set<std::pair<uint64_t, double>> seen;
    for (const Evaluation &eval : evals) {
        if (!eval.ok || eval.stepS <= 0.0 ||
            !seen.insert({eval.fingerprint, eval.stepS}).second)
            continue;
        const uint64_t id = counts.instances++;
        SpanLog::Scope instance(&spans, "replay.instance", id);

        ProblemSpec spec;
        {
            SpanLog::Scope span(&spans, "hilp.build", id);
            spec = buildProblem(setup.workload, eval.config,
                                setup.constraints, setup.options.build);
        }
        if (eval.model == dse::ModelKind::Gables) {
            SpanLog::Scope span(&spans, "baselines.gables_transform", id);
            spec = baselines::gablesTransform(spec);
        }
        DiscretizedProblem problem;
        {
            SpanLog::Scope span(&spans, "hilp.discretize", id);
            problem = discretize(spec, eval.stepS,
                                 setup.options.engine.horizonSteps);
        }
        const cp::Model &model = problem.model;
        uint64_t heuristic_seed = 0;
        cp::SolverOptions options =
            engineSolverOptions(setup, spec, &heuristic_seed);

        cp::LowerBounds bounds;
        {
            SpanLog::Scope span(&spans, "cp.bounds", id);
            bounds = cp::computeLowerBounds(model, options.useLpBound);
        }
        cp::LowerBounds combinatorial;
        {
            SpanLog::Scope span(&spans, "cp.bounds.nolp", id);
            combinatorial = cp::computeLowerBounds(model, false);
        }
        if (bounds.lpRelaxation > combinatorial.best())
            ++counts.lpTightest;
        const cp::Time lower_bound = bounds.best();

        // The solver's incumbent stages, in its order: greedy, then
        // the hill climb only when the greedy misses the target gap.
        cp::ListResult greedy;
        {
            SpanLog::Scope span(&spans, "cp.greedy", id);
            greedy = cp::bestGreedy(model, options.greedyRestarts,
                                    heuristic_seed);
        }
        if (greedy.feasible) {
            if (gapOf(greedy.makespan, lower_bound) <= options.targetGap) {
                ++counts.greedyCertified;
            } else {
                SpanLog::Scope span(&spans, "cp.improve", id);
                greedy = cp::improveGreedy(model, greedy,
                                           options.lnsIterations,
                                           heuristic_seed + 1);
            }
        }

        cp::SearchLimits limits;
        limits.maxNodes = options.maxNodes;
        limits.maxSeconds = options.maxSeconds;
        limits.targetGap = options.targetGap;
        limits.lowerBound = lower_bound;
        limits.energeticReasoning = options.energeticReasoning;
        limits.useNogoods = options.useNogoods;
        limits.nogoodCapacity = options.nogoodCapacity;
        limits.packedLayout = options.packedLayout;
        cp::SearchResult search;
        {
            SpanLog::Scope span(&spans, "cp.bnb", id);
            search = cp::branchAndBound(
                model, greedy.feasible ? &greedy.schedule : nullptr,
                limits);
        }
        counts.bnbNodes += search.nodes;
        counts.improving += search.solutions;
        if (search.exhausted)
            ++counts.exhausted;
        else if (search.nodes >= limits.maxNodes)
            ++counts.nodeCapped;

        SpanLog::Scope span(&spans, "cp.solve", id);
        cp::Solver(options).solve(model);
    }
    return counts;
}

} // namespace perfbench
