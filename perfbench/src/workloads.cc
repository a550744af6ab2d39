#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "arch/design_space.hh"
#include "baselines/gables.hh"
#include "dse/pareto.hh"
#include "hilp/builder.hh"
#include "hilp/engine.hh"
#include "sim/replay.hh"
#include "support/hash.hh"
#include "support/str.hh"
#include "workload/rodinia.hh"

namespace perfbench {

using namespace hilp;

namespace {

/** A per-solve wall-clock budget no solve reaches. */
constexpr double kOutOfReachS = 1e6;

/** The paper's near-optimality bar, as EvalResult::nearOptimal. */
constexpr double kTargetGap = 0.10 + 1e-12;

/**
 * Serial engine options whose work the clock cannot change: one solver
 * thread, no per-point deadline, and a per-solve wall-clock budget no
 * solve reaches, so node budgets and the target gap alone end each
 * solve.
 */
dse::DseOptions
serialOptions(EngineOptions engine, int64_t max_nodes, uint64_t seed)
{
    dse::DseOptions options;
    options.threads = 1;
    options.reuse = true;
    options.engine = engine;
    options.engine.solver.maxNodes = max_nodes;
    options.engine.solver.maxSeconds = kOutOfReachS;
    options.engine.pointTimeoutS = 0.0; // No per-point deadline.
    options.engine.solver.threads = 1;
    options.engine.solver.seed = seed;
    return options;
}

/** Figure 7's exploration-mode budget. */
dse::DseOptions
explorationOptions(uint64_t seed)
{
    return serialOptions(EngineOptions::explorationMode(), 120000, seed);
}

Evaluation
fromPoint(const dse::DsePoint &point, dse::ModelKind model)
{
    Evaluation eval;
    eval.config = point.config;
    eval.model = model;
    eval.ok = point.ok;
    eval.degraded = point.degraded;
    eval.errored = point.errored;
    eval.makespanS = point.makespanS;
    eval.gap = point.gap;
    eval.areaMm2 = point.areaMm2;
    eval.speedup = point.speedup;
    eval.nodes = point.nodes;
    eval.solves = point.solves;
    eval.solveSeconds = point.solveSeconds;
    eval.cacheHit = point.cacheHit;
    eval.warmStarted = point.warmStarted;
    eval.pruned = point.pruned;
    eval.fingerprint = point.fingerprint;
    eval.propagators = point.propagators;
    return eval;
}

/**
 * One engine evaluation the way evaluatePoint runs it (buildProblem,
 * the Gables rewrite, evaluate), with a span around each call. Gables
 * is transformed here rather than inside evaluateGables so the
 * evaluated spec's schedule and final step are at hand for the check;
 * the work is the same.
 */
Evaluation
evaluateOne(const Setup &setup, const arch::SocConfig &config,
            dse::ModelKind model, SpanLog *spans, uint64_t id)
{
    Evaluation eval;
    eval.config = config;
    eval.model = model;
    eval.areaMm2 = config.areaMm2();
    ProblemSpec spec;
    {
        SpanLog::Scope span(spans, "pass.build", id);
        spec = buildProblem(setup.workload, config, setup.constraints,
                            setup.options.build);
    }
    // Validated before the Gables rewrite, as evaluatePoint does.
    if (!spec.validate().empty())
        return eval;
    if (model == dse::ModelKind::Gables) {
        SpanLog::Scope span(spans, "pass.gables_transform", id);
        spec = baselines::gablesTransform(spec);
    }
    EvalResult result;
    {
        SpanLog::Scope span(spans, "pass.evaluate", id);
        result = evaluate(spec, setup.options.engine);
    }
    eval.fingerprint = spec.fingerprint();
    eval.ok = result.ok;
    eval.degraded = result.degraded;
    eval.makespanS = result.makespanS;
    eval.gap = result.gap;
    eval.nodes = result.totalNodes;
    eval.solves = result.solves;
    eval.solveSeconds = result.totalSeconds;
    eval.stepS = result.stepS;
    eval.propagators = result.propagators;
    eval.schedule = std::move(result.schedule);
    if (eval.makespanS > 0.0)
        eval.speedup = workload::sequentialCpuTimeS(setup.workload) /
                       eval.makespanS;
    return eval;
}

/**
 * Replay an evaluation's schedule through sim::replaySchedule; returns
 * the violation, or "" when it replays clean at the reported makespan.
 */
std::string
replayViolation(const Setup &setup, const Evaluation &eval)
{
    ProblemSpec spec;
    if (!lowerSpec(setup, eval.config, eval.model, &spec))
        return format("%s: spec does not validate", eval.label().c_str());
    sim::SimResult sim = sim::replaySchedule(spec, eval.schedule);
    if (!sim.ok)
        return format("%s: replay failed: %s", eval.label().c_str(),
                      sim.violation.c_str());
    double tolerance = 1e-9 * std::max(1.0, eval.makespanS);
    if (std::fabs(sim.makespanS - eval.makespanS) > tolerance)
        return format("%s: replayed makespan %.9g != reported %.9g",
                      eval.label().c_str(), sim.makespanS,
                      eval.makespanS);
    return "";
}

/** Pareto-front indices (area vs speedup) of one model's ok points. */
std::vector<size_t>
front(const std::vector<Evaluation> &evals, dse::ModelKind model)
{
    std::vector<double> cost;
    std::vector<double> value;
    std::vector<size_t> index;
    for (size_t i = 0; i < evals.size(); ++i) {
        if (evals[i].model != model || !evals[i].ok)
            continue;
        cost.push_back(evals[i].areaMm2);
        value.push_back(evals[i].speedup);
        index.push_back(i);
    }
    // Figure 7's epsilon-dominance: a bigger SoC must buy at least
    // 0.5% more performance to be Pareto-improving.
    std::vector<size_t> result;
    for (size_t f : dse::paretoFront(cost, value, 5e-3))
        result.push_back(index[f]);
    return result;
}

/** Evaluate every (model, config) pair one engine call at a time. */
std::vector<Evaluation>
evaluateEach(const Setup &setup, SpanLog *spans)
{
    std::vector<Evaluation> evals;
    for (dse::ModelKind model : setup.models)
        for (const arch::SocConfig &config : setup.configs)
            evals.push_back(evaluateOne(setup, config, model, spans,
                                        evals.size()));
    return evals;
}

std::vector<Evaluation>
sweep(const Setup &setup, SolveMemo &memo)
{
    dse::DseOptions options = setup.options;
    options.memo = &memo;
    std::vector<Evaluation> evals;
    for (dse::ModelKind model : setup.models) {
        auto points = dse::exploreSpace(setup.configs, setup.workload,
                                        setup.constraints, model,
                                        options);
        for (const dse::DsePoint &point : points)
            evals.push_back(fromPoint(point, model));
    }
    return evals;
}

} // anonymous namespace

bool
parseKind(const std::string &name, Kind *out)
{
    for (Kind kind : {Kind::Explore, Kind::Packing, Kind::Deep}) {
        if (name == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

const char *
toString(Kind kind)
{
    switch (kind) {
      case Kind::Explore:
        return "explore";
      case Kind::Packing:
        return "packing";
      case Kind::Deep:
        return "deep";
    }
    return "unknown";
}

std::string
Evaluation::label() const
{
    return format("%s %s", dse::toString(model), config.name().c_str());
}

Setup
makeSetup(Kind kind, uint64_t seed, size_t max_configs)
{
    Setup setup;
    setup.kind = kind;
    if (kind == Kind::Deep) {
        setup.workload =
            workload::makeWorkload(workload::Variant::Optimized);
        for (int cpus : {1, 2, 4, 8}) {
            arch::SocConfig config;
            config.cpuCores = cpus;
            config.gpuSms = 64;
            setup.configs.push_back(config);
        }
        setup.models = {dse::ModelKind::Hilp, dse::ModelKind::Gables};
        setup.options = serialOptions(EngineOptions::validationMode(),
                                      100000, seed);
        setup.options.engine.escalations = 1;
    } else {
        setup.workload =
            workload::makeWorkload(workload::Variant::Default);
        arch::DesignSpace space;
        space.dsaAdvantage = 4.0;
        setup.configs = arch::enumerateDesignSpace(
            space, workload::dsaPriorityOrder());
        setup.models = {kind == Kind::Explore ? dse::ModelKind::Hilp
                                              : dse::ModelKind::Gables};
        setup.options = explorationOptions(seed);
    }
    if (max_configs > 0 && setup.configs.size() > max_configs) {
        // An evenly spaced subset, so a tiny space still spans the
        // whole range of SoCs.
        std::vector<arch::SocConfig> subset;
        for (size_t i = 0; i < max_configs; ++i)
            subset.push_back(
                setup.configs[i * setup.configs.size() / max_configs]);
        setup.configs = std::move(subset);
    }
    return setup;
}

void
warmUp(const Setup &setup)
{
    // One HILP evaluation of the paper's headline SoC, (c4,g16,d2^16),
    // in exploration mode at seed 1, for every workload: it runs every
    // layer once (lowering, discretization, bounds and LP, greedy,
    // branch-and-bound, refinement) in 0.06-0.2 s, and does not move
    // with --seed.
    std::vector<int> priority = workload::dsaPriorityOrder();
    arch::SocConfig config;
    config.cpuCores = 4;
    config.gpuSms = 16;
    config.dsas = {{16, priority[0]}, {16, priority[1]}};
    dse::evaluatePoint(config, setup.workload, setup.constraints,
                       dse::ModelKind::Hilp, explorationOptions(1));
}

bool
lowerSpec(const Setup &setup, const arch::SocConfig &config,
          dse::ModelKind model, ProblemSpec *out)
{
    *out = buildProblem(setup.workload, config, setup.constraints,
                        setup.options.build);
    if (!out->validate().empty())
        return false;
    if (model == dse::ModelKind::Gables)
        *out = baselines::gablesTransform(*out);
    return true;
}

std::vector<Evaluation>
runPass(const Setup &setup, SolveMemo &memo)
{
    if (setup.kind == Kind::Explore)
        return sweep(setup, memo);
    return evaluateEach(setup, nullptr);
}

void
attachResults(const Setup &setup, SolveMemo &memo,
              std::vector<Evaluation> &evals)
{
    if (setup.kind != Kind::Explore)
        return;
    // Every evaluation the sweep made, pruned ones included, is in its
    // memo; a cache hit returned the very entry it finds here.
    for (Evaluation &eval : evals) {
        EvalResult cached;
        if (eval.ok && memo.lookup(eval.fingerprint, &cached) &&
            cached.makespanS == eval.makespanS && cached.gap == eval.gap) {
            eval.stepS = cached.stepS;
            eval.schedule = std::move(cached.schedule);
        }
    }
}

std::vector<Evaluation>
runTracedPass(const Setup &setup, SpanLog &spans)
{
    std::vector<Evaluation> evals;
    if (setup.kind == Kind::Explore) {
        // The sweep's reuse layer lives inside exploreSpace, so it is
        // traced as one call.
        SolveMemo memo(setup.options.engine.memoMaxBytes);
        {
            SpanLog::Scope span(&spans, "pass.explore_space", 0);
            evals = sweep(setup, memo);
        }
        attachResults(setup, memo, evals);
    } else {
        evals = evaluateEach(setup, &spans);
    }
    for (dse::ModelKind model : setup.models) {
        SpanLog::Scope span(&spans, "pass.pareto", 0);
        front(evals, model);
    }
    return evals;
}

Quality
summarize(const std::vector<Evaluation> &evals)
{
    Quality quality;
    quality.evaluations = static_cast<int>(evals.size());
    for (const Evaluation &eval : evals) {
        if (!eval.ok || eval.errored || eval.degraded) {
            ++quality.failed;
            continue;
        }
        if (eval.gap > kTargetGap)
            ++quality.overTarget;
        quality.gapMax = std::max(quality.gapMax, eval.gap);
    }
    std::vector<dse::ModelKind> models;
    for (const Evaluation &eval : evals)
        if (std::find(models.begin(), models.end(), eval.model) ==
            models.end())
            models.push_back(eval.model);
    for (dse::ModelKind model : models)
        for (size_t i : front(evals, model))
            if (evals[i].gap > kTargetGap)
                ++quality.frontOverTarget;
    return quality;
}

std::vector<std::string>
digests(const std::vector<Evaluation> &evals)
{
    std::vector<std::string> out;
    for (const Evaluation &eval : evals) {
        Hasher hasher;
        hasher.str(eval.label());
        hasher.i64(eval.nodes);
        hasher.i64(eval.solves);
        hasher.f64(eval.gap);
        hasher.f64(eval.makespanS);
        out.push_back(format("%016llx", static_cast<unsigned long long>(
                                            hasher.digest())));
    }
    return out;
}

std::vector<std::string>
checkPass(const Setup &setup, const std::vector<Evaluation> &evals,
          const Json *reference)
{
    // Reference intervals and steps by label; labels are unique in a
    // workload.
    struct Interval
    {
        double lo, hi, stepS;
    };
    std::map<std::string, Interval> intervals;
    const Json *points = reference && reference->isObject()
                             ? reference->find("points")
                             : nullptr;
    for (size_t i = 0; points && points->isArray() && i < points->size();
         ++i) {
        const Json &ref = points->at(i);
        const Json *label = ref.find("label");
        const Json *lo = ref.find("lo");
        const Json *hi = ref.find("hi");
        const Json *step = ref.find("step_s");
        if (label && label->isString() && lo && lo->isNumber() && hi &&
            hi->isNumber() && step && step->isNumber())
            intervals[label->stringValue()] = {
                lo->numberValue(), hi->numberValue(),
                step->numberValue()};
    }

    std::vector<std::string> violations;
    for (const Evaluation &eval : evals) {
        if (!eval.ok)
            continue; // Counted as failed already.
        if (eval.stepS <= 0.0) {
            violations.push_back(format("%s: final step unknown",
                                        eval.label().c_str()));
            continue;
        }
        const Interval *ref = nullptr;
        if (setup.kind != Kind::Deep) {
            auto it = intervals.find(eval.label());
            if (it == intervals.end()) {
                violations.push_back(format("%s: no reference interval",
                                            eval.label().c_str()));
                continue;
            }
            ref = &it->second;
        }
        if (!ref || std::fabs(ref->stepS - eval.stepS) >
                        1e-9 * std::max(ref->stepS, eval.stepS)) {
            std::string violation = replayViolation(setup, eval);
            if (!violation.empty())
                violations.push_back(std::move(violation));
            continue;
        }
        // Two correct certificates of one discretized instance always
        // intersect: each holds its true optimum.
        double low = eval.makespanS * (1.0 - eval.gap);
        double slack = 1e-9 * std::max(1.0, eval.makespanS);
        if (low > ref->hi + slack || ref->lo > eval.makespanS + slack)
            violations.push_back(format(
                "%s: certified [%.9g, %.9g] misses reference "
                "[%.9g, %.9g]", eval.label().c_str(), low,
                eval.makespanS, ref->lo, ref->hi));
    }
    return violations;
}

Json
referenceJson(const Setup &setup, const std::vector<Evaluation> &evals)
{
    Json points = Json::array();
    for (const Evaluation &eval : evals) {
        Json point = Json::object();
        point.set("label", Json::string(eval.label()));
        point.set("lo", Json::number(eval.makespanS * (1.0 - eval.gap)));
        point.set("hi", Json::number(eval.makespanS));
        point.set("step_s", Json::number(eval.stepS));
        points.append(std::move(point));
    }
    Json out = Json::object();
    out.set("workload", Json::string(toString(setup.kind)));
    out.set("points", std::move(points));
    return out;
}

} // namespace perfbench
