/**
 * @file
 * Integration tests for the observability layer: a real solve with
 * tracing enabled exports a structurally valid, balanced Chrome
 * trace, and tracing never perturbs the search itself (bit-identical
 * node and backtrack counts on or off).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cp/model.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * A small two-device instance with heterogeneous durations, so the
 * search has real mode/placement decisions to branch over.
 */
Model
makeInstance()
{
    Model m;
    int gpu = m.addGroup("GPU");
    int dsa = m.addGroup("DSA");
    const Time gpu_durations[8] = {5, 7, 3, 9, 4, 6, 8, 2};
    const Time dsa_durations[8] = {6, 4, 8, 3, 7, 5, 2, 9};
    for (int i = 0; i < 8; ++i) {
        Task t;
        t.modes.push_back({gpu, gpu_durations[i], {}});
        t.modes.push_back({dsa, dsa_durations[i], {}});
        m.addTask(t);
    }
    m.addPrecedence(0, 4);
    m.addPrecedence(1, 5);
    m.setHorizon(60);
    return m;
}

/**
 * Exact solve with the warm start and the LP bound dialed down, so
 * the branch-and-bound search (the instrumented hot path) must do
 * the proving itself - thousands of nodes rather than a root cutoff.
 */
SolverOptions
exactOptions()
{
    SolverOptions options;
    options.targetGap = 0.0;
    options.maxSeconds = 20.0;
    options.greedyRestarts = 1;
    options.lnsIterations = 0;
    options.useLpBound = false;
    return options;
}

class TraceSolveTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = trace::enabled();
        trace::setEnabled(false);
        trace::clearAll();
    }

    void
    TearDown() override
    {
        trace::setEnabled(wasEnabled_);
        trace::clearAll();
    }

  private:
    bool wasEnabled_ = false;
};

TEST_F(TraceSolveTest, TracingDoesNotPerturbTheSearch)
{
    Model m = makeInstance();

    Result off = Solver(exactOptions()).solve(m);
    trace::setEnabled(true);
    Result on = Solver(exactOptions()).solve(m);
    trace::setEnabled(false);

    // The acceptance bar: identical trees, not merely close ones.
    EXPECT_EQ(off.status, on.status);
    EXPECT_EQ(off.makespan, on.makespan);
    EXPECT_EQ(off.lowerBound, on.lowerBound);
    EXPECT_EQ(off.stats.nodes, on.stats.nodes);
    EXPECT_EQ(off.stats.backtracks, on.stats.backtracks);
    EXPECT_EQ(off.stats.solutions, on.stats.solutions);
    EXPECT_GT(off.stats.nodes, 0);
}

TEST_F(TraceSolveTest, SolveExportsValidBalancedTrace)
{
    trace::setEnabled(true);
    Result result = Solver(exactOptions()).solve(makeInstance());
    trace::setEnabled(false);
    ASSERT_TRUE(result.hasSchedule());

    Json exported = trace::toJson();
    EXPECT_EQ(trace::validateChromeTrace(exported), "");

    // The solver phases appear as balanced B/E pairs.
    const Json *events = exported.find("traceEvents");
    ASSERT_NE(events, nullptr);
    int begins = 0;
    int ends = 0;
    bool saw_solve = false;
    bool saw_search = false;
    bool saw_bounds = false;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &event = events->at(i);
        const std::string &phase = event.find("ph")->stringValue();
        if (phase == "B")
            ++begins;
        else if (phase == "E")
            ++ends;
        const std::string &name = event.find("name")->stringValue();
        saw_solve = saw_solve || name == "cp.solve";
        saw_search = saw_search || name == "cp.search";
        saw_bounds = saw_bounds || name == "cp.bounds";
    }
    EXPECT_EQ(begins, ends);
    EXPECT_GT(begins, 0);
    EXPECT_TRUE(saw_solve);
    EXPECT_TRUE(saw_search);
    EXPECT_TRUE(saw_bounds);

    // The exported text also survives a parse round-trip.
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(exported.dump(), &reparsed, &error))
        << error;
    EXPECT_EQ(trace::validateChromeTrace(reparsed), "");
}

TEST_F(TraceSolveTest, SolveMovesTheMetricsCounters)
{
    metrics::counter("cp.solves").reset();
    metrics::counter("cp.search.nodes").reset();
    metrics::counter("cp.propagations").reset();
    metrics::histogram("cp.solve_us").reset();

    Result result = Solver(exactOptions()).solve(makeInstance());
    ASSERT_TRUE(result.hasSchedule());

    EXPECT_EQ(metrics::counter("cp.solves").value(), 1);
    EXPECT_EQ(metrics::counter("cp.search.nodes").value(),
              result.stats.nodes);
    EXPECT_GT(metrics::counter("cp.propagations").value(), 0);
    EXPECT_EQ(metrics::histogram("cp.solve_us").snapshot().count, 1);

    metrics::counter("cp.solves").reset();
    metrics::counter("cp.search.nodes").reset();
    metrics::counter("cp.propagations").reset();
    metrics::histogram("cp.solve_us").reset();
}

/**
 * Each search flushes its totals once: the cp.search.* counters move
 * by exactly the SearchResult's fields, and only a parallel search
 * counts under cp.par.*.
 */
TEST_F(TraceSolveTest, SearchFlushesItsCountersOnce)
{
    const char *const names[] = {
        "cp.search.nodes", "cp.search.backtracks", "cp.search.solutions",
        "cp.search.start_sweeps", "cp.search.start_reused",
        "cp.par.searches"};
    auto snapshot = [&]() {
        std::vector<int64_t> values;
        for (const char *name : names)
            values.push_back(metrics::counter(name).value());
        return values;
    };
    Model m = makeInstance();
    for (int threads : {1, 2}) {
        SCOPED_TRACE(threads);
        SearchLimits limits;
        limits.threads = threads;
        std::vector<int64_t> before = snapshot();
        SearchResult r = branchAndBound(m, nullptr, limits);
        std::vector<int64_t> after = snapshot();
        ASSERT_TRUE(r.exhausted);
        ASSERT_GT(r.nodes, 0);
        EXPECT_EQ(after[0] - before[0], r.nodes);
        EXPECT_EQ(after[1] - before[1], r.backtracks);
        EXPECT_EQ(after[2] - before[2], r.solutions);
        EXPECT_EQ(after[3] - before[3], r.startSweeps);
        EXPECT_EQ(after[4] - before[4], r.startsReused);
        EXPECT_EQ(after[5] - before[5], threads == 1 ? 0 : 1);
    }
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
