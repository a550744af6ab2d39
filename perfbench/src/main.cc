/**
 * @file
 * The benchmark program. One run sets the workload up several times,
 * measures whole passes over it for about --seconds, checks every
 * output, and prints one JSON report line:
 *
 *   hilp_perfbench --workload explore|packing|deep --seed N
 *                    --seconds S --trace 0|1
 *                    [--reference FILE] [--write-reference FILE]
 *                    [--trace-out FILE] [--points-out FILE]
 *                    [--max-configs N]
 *
 * --trace 0 reports the end-to-end metrics of untraced passes.
 * --trace 1 runs one untraced pass, the same evaluations again with
 * spans around each public call, then the stage replay, and reports
 * the per-layer metrics. perfbench/run.py builds and runs this.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cp/propagate.hh"
#include "hilp/engine.hh"
#include "replay.hh"
#include "spans.hh"
#include "support/json.hh"
#include "workloads.hh"

namespace {

using namespace hilp;
using perfbench::Evaluation;
using Clock = std::chrono::steady_clock;

/**
 * Set-ups timed before each pass and after the last one. One set-up
 * lasts 0.06-0.2 s, and the host's speed drifts by a third over tens
 * of seconds, so setup_s is the median of set-ups spread over the run.
 */
constexpr int kSetupsPerWindow = 7;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string writeReference;
    std::string traceOut;
    std::string pointsOut;
    size_t maxConfigs = 0;
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "hilp_perfbench: %s\nusage: hilp_perfbench "
                 "--workload explore|packing|deep [--seed N] "
                 "[--seconds S] [--trace 0|1] [--reference FILE] "
                 "[--write-reference FILE] [--trace-out FILE] "
                 "[--points-out FILE] [--max-configs N]\n",
                 message);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--write-reference") {
            args.writeReference = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else if (flag == "--points-out") {
            args.pointsOut = value;
        } else if (flag == "--max-configs") {
            args.maxConfigs = std::strtoull(value.c_str(), &end, 10);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && (*end != '\0' || end == value.c_str()))
            usage(("bad number for " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of a non-empty sample. */
double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/**
 * Peak resident set of this process image (VmHWM). Unlike ru_maxrss,
 * which keeps the high-water mark of the parent that forked the
 * process across exec, it counts only the benchmark's own memory.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

bool
readJson(const std::string &path, Json *out)
{
    std::ifstream file(path);
    if (!file)
        return false;
    std::ostringstream text;
    text << file.rdbuf();
    return Json::parse(text.str(), out);
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream file(path);
    file << text << '\n';
    return static_cast<bool>(file);
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        Json metric = Json::object();
        metric.set("value", Json::number(value));
        metric.set("unit", Json::string(unit));
        json_.set(name, std::move(metric));
    }
    Json take() { return std::move(json_); }

  private:
    Json json_ = Json::object();
};

Json
numbers(const std::vector<double> &values)
{
    Json out = Json::array();
    for (double value : values)
        out.append(Json::number(value));
    return out;
}

/** The first pass's evaluations, one row each (--points-out). */
Json
pointsJson(const std::vector<Evaluation> &evals)
{
    Json rows = Json::array();
    for (const Evaluation &eval : evals) {
        Json row = Json::object();
        row.set("label", Json::string(eval.label()));
        row.set("ok", Json::boolean(eval.ok));
        row.set("makespan_s", Json::number(eval.makespanS));
        row.set("gap", Json::number(eval.gap));
        row.set("area_mm2", Json::number(eval.areaMm2));
        row.set("speedup", Json::number(eval.speedup));
        row.set("nodes", Json::number(eval.nodes));
        row.set("solves", Json::number(int64_t{eval.solves}));
        row.set("solve_s", Json::number(eval.solveSeconds));
        row.set("cache_hit", Json::boolean(eval.cacheHit));
        row.set("warm_started", Json::boolean(eval.warmStarted));
        row.set("pruned", Json::boolean(eval.pruned));
        rows.append(std::move(row));
    }
    return rows;
}

/**
 * Count the evaluations whose digest differs from the reference pass;
 * a budget that still reads the clock shows up here.
 */
int
digestMismatches(const std::vector<std::string> &expected,
                 const std::vector<std::string> &actual)
{
    if (expected.size() != actual.size())
        return static_cast<int>(std::max(expected.size(), actual.size()));
    int mismatches = 0;
    for (size_t i = 0; i < expected.size(); ++i)
        mismatches += expected[i] != actual[i];
    return mismatches;
}

void
addLayerMetrics(Metrics &metrics, const std::vector<Evaluation> &evals,
                double bare_wall_s, double traced_wall_s,
                const perfbench::SpanLog &spans,
                const perfbench::ReplayCounts &counts)
{
    std::map<std::string, double> self = spans.selfMs();
    auto ms = [&self](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };

    int64_t nodes = 0;
    int solves = 0;
    int warm = 0;
    int hits = 0;
    int pruned = 0;
    double solve_s = 0.0;
    std::vector<double> eval_ms;
    std::vector<cp::PropagatorStats> props;
    for (const Evaluation &eval : evals) {
        nodes += eval.nodes;
        solves += eval.solves;
        warm += eval.warmStarted;
        hits += eval.cacheHit;
        pruned += eval.pruned;
        solve_s += eval.solveSeconds;
        if (eval.solves > 0)
            eval_ms.push_back(eval.solveSeconds * 1e3);
        cp::mergePropagatorStats(props, eval.propagators);
    }

    const double bnb_ms = ms("cp.bnb");
    metrics.add("cp.bnb_ms", bnb_ms, "ms");
    metrics.add("cp.bnb.nodes", static_cast<double>(nodes), "count");
    metrics.add("cp.bnb.ns_per_node",
                counts.bnbNodes ? bnb_ms * 1e6 / counts.bnbNodes : 0.0,
                "ns");
    metrics.add("cp.bnb.improving", static_cast<double>(counts.improving),
                "count");
    metrics.add("cp.bnb.improving_per_mnode",
                counts.bnbNodes ? counts.improving * 1e6 / counts.bnbNodes
                                : 0.0,
                "1/Mnode");
    metrics.add("cp.bnb.node_capped", counts.nodeCapped, "count");
    metrics.add("cp.bnb.exhausted", counts.exhausted, "count");

    for (const char *rule : {"timetable", "disjunctive", "precedence"}) {
        cp::PropagatorStats stats;
        for (const cp::PropagatorStats &p : props)
            if (p.name == rule)
                stats = p;
        std::string prefix = std::string("cp.prop.") + rule;
        metrics.add(prefix + ".invocations",
                    static_cast<double>(stats.invocations), "count");
        metrics.add(prefix + ".prunings",
                    static_cast<double>(stats.prunings), "count");
        metrics.add(prefix + ".ms", stats.seconds * 1e3, "ms");
    }

    const double bounds_ms = ms("cp.bounds");
    const double stages_ms =
        bounds_ms + ms("cp.greedy") + ms("cp.improve") + bnb_ms;
    metrics.add("cp.bounds_ms", bounds_ms, "ms");
    metrics.add("cp.bounds.lp_ms", bounds_ms - ms("cp.bounds.nolp"), "ms");
    metrics.add("cp.bounds.lp_tightest", counts.lpTightest, "count");
    metrics.add("cp.greedy_ms", ms("cp.greedy"), "ms");
    metrics.add("cp.improve_ms", ms("cp.improve"), "ms");
    metrics.add("cp.greedy.certified", counts.greedyCertified, "count");
    metrics.add("cp.solve_ms", ms("cp.solve"), "ms");
    metrics.add("cp.stage_coverage",
                ms("cp.solve") > 0.0 ? stages_ms / ms("cp.solve") : 0.0,
                "ratio");

    metrics.add("hilp.build_ms", ms("hilp.build"), "ms");
    metrics.add("hilp.discretize_ms", ms("hilp.discretize"), "ms");
    metrics.add("hilp.solves_per_eval",
                evals.empty() ? 0.0
                              : static_cast<double>(solves) / evals.size(),
                "ratio");
    metrics.add("hilp.eval_p50_ms",
                eval_ms.empty() ? 0.0 : percentile(eval_ms, 0.50), "ms");
    metrics.add("hilp.eval_p97_ms",
                eval_ms.empty() ? 0.0 : percentile(eval_ms, 0.97), "ms");
    metrics.add("hilp.eval_samples", static_cast<double>(eval_ms.size()),
                "count");

    const int solved = static_cast<int>(evals.size()) - hits;
    metrics.add("dse.warm_started", warm, "count");
    metrics.add("dse.cache_hits", hits, "count");
    metrics.add("dse.pruned", pruned, "count");
    metrics.add("dse.warm_start_rate",
                solved > 0 ? static_cast<double>(warm) / solved : 0.0,
                "ratio");
    metrics.add("dse.overhead_ms", (bare_wall_s - solve_s) * 1e3, "ms");
    metrics.add("dse.pareto_ms", ms("pass.pareto"), "ms");
    metrics.add("dse.front_over_target",
                perfbench::summarize(evals).frontOverTarget, "count");

    metrics.add("baselines.gables_transform_ms",
                ms("baselines.gables_transform"), "ms");

    metrics.add("replay.instances", counts.instances, "count");
    metrics.add("replay.self_ms", ms("replay.instance"), "ms");
    metrics.add("trace.overhead_ms", (traced_wall_s - bare_wall_s) * 1e3,
                "ms");
    metrics.add("trace.spans", static_cast<double>(spans.size()), "count");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    perfbench::Kind kind;
    if (!perfbench::parseKind(args.workload, &kind))
        usage(("unknown workload " + args.workload).c_str());

    Json reference;
    const bool sweep = kind != perfbench::Kind::Deep;
    if (sweep && args.writeReference.empty() &&
        !readJson(args.reference, &reference)) {
        std::fprintf(stderr, "hilp_perfbench: cannot read reference "
                             "'%s'\n", args.reference.c_str());
        return 1;
    }

    // Set-up: inputs, options and one warm-up evaluation. Every
    // set-up builds the same inputs; the passes use the latest.
    std::vector<double> setup_s;
    perfbench::Setup setup;
    auto time_setups = [&] {
        for (int i = 0; i < kSetupsPerWindow; ++i) {
            Clock::time_point start = Clock::now();
            setup = perfbench::makeSetup(kind, args.seed, args.maxConfigs);
            perfbench::warmUp(setup);
            setup_s.push_back(seconds(Clock::now() - start));
        }
    };

    // Whole passes until the next one would overrun --seconds; one
    // pass in a traced run. Each pass is checked after its clocks
    // stop, and its schedules are then dropped so that memory does not
    // grow with the number of passes.
    std::vector<std::vector<Evaluation>> passes;
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<std::string> violations;
    Clock::time_point measure_start = Clock::now();
    do {
        time_setups();
        SolveMemo memo(setup.options.engine.memoMaxBytes);
        double cpu0 = cpuSeconds();
        Clock::time_point start = Clock::now();
        std::vector<Evaluation> pass = perfbench::runPass(setup, memo);
        wall_s.push_back(seconds(Clock::now() - start));
        cpu_s.push_back(cpuSeconds() - cpu0);
        perfbench::attachResults(setup, memo, pass);

        if (!args.writeReference.empty()) {
            if (!writeText(args.writeReference,
                           perfbench::referenceJson(setup, pass).dump(1))) {
                std::fprintf(stderr, "hilp_perfbench: cannot write '%s'\n",
                             args.writeReference.c_str());
                return 1;
            }
        } else {
            for (std::string &violation :
                 perfbench::checkPass(setup, pass, &reference))
                violations.push_back(std::move(violation));
        }
        for (Evaluation &eval : pass)
            eval.schedule = {};
        passes.push_back(std::move(pass));
    } while (!args.trace &&
             seconds(Clock::now() - measure_start) + wall_s.back() <=
                 args.seconds);
    time_setups();

    const std::vector<Evaluation> &first = passes.front();
    if (!args.pointsOut.empty() &&
        !writeText(args.pointsOut, pointsJson(first).dump(1))) {
        std::fprintf(stderr, "hilp_perfbench: cannot write '%s'\n",
                     args.pointsOut.c_str());
        return 1;
    }

    const std::vector<std::string> digests = perfbench::digests(first);
    int attempted = 0;
    int failed = 0;
    int mismatched = 0;
    for (const auto &pass : passes) {
        perfbench::Quality quality = perfbench::summarize(pass);
        attempted += quality.evaluations;
        failed += quality.failed;
        mismatched += digestMismatches(digests, perfbench::digests(pass));
    }

    Metrics metrics;
    if (args.trace) {
        perfbench::SpanLog spans;
        Clock::time_point start = Clock::now();
        std::vector<Evaluation> traced =
            perfbench::runTracedPass(setup, spans);
        double traced_wall_s = seconds(Clock::now() - start);
        perfbench::ReplayCounts counts =
            perfbench::replayStages(setup, traced, spans);
        attempted += static_cast<int>(traced.size());
        failed += perfbench::summarize(traced).failed;
        mismatched += digestMismatches(digests, perfbench::digests(traced));
        addLayerMetrics(metrics, first, wall_s.front(), traced_wall_s,
                        spans, counts);
        if (!args.traceOut.empty() &&
            !writeText(args.traceOut, spans.chromeTrace().dump())) {
            std::fprintf(stderr, "hilp_perfbench: cannot write '%s'\n",
                         args.traceOut.c_str());
            return 1;
        }
    } else {
        perfbench::Quality quality = perfbench::summarize(first);
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("wall_s", median(wall_s), "s");
        metrics.add("cpu_s", median(cpu_s), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
        metrics.add("over_target", quality.overTarget, "count");
        metrics.add("gap_max", quality.gapMax, "ratio");
    }
    failed += static_cast<int>(violations.size()) + mismatched;
    for (const std::string &violation : violations)
        std::fprintf(stderr, "hilp_perfbench: %s\n", violation.c_str());
    if (mismatched > 0)
        std::fprintf(stderr, "hilp_perfbench: %d evaluation(s) changed "
                             "between passes at one seed\n", mismatched);

    Json report = Json::object();
    report.set("correct", Json::boolean(violations.empty() &&
                                        mismatched == 0));
    report.set("attempted", Json::number(int64_t{attempted}));
    report.set("failed", Json::number(int64_t{failed}));
    report.set("setup_samples_s", numbers(setup_s));
    report.set("pass_wall_s", numbers(wall_s));
    Json digest_list = Json::array();
    for (const std::string &digest : digests)
        digest_list.append(Json::string(digest));
    report.set("digests", std::move(digest_list));
    report.set("metrics", metrics.take());
    std::printf("%s\n", report.dump().c_str());
    return 0;
}
