/** @file Tests for initiation intervals (start-to-start lags, the
 * Section VII extension) across the solver stack. */

#include <gtest/gtest.h>

#include "cp/bounds.hh"
#include "cp/exhaustive.hh"
#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/** Two tasks on separate groups with a start lag between them. */
Model
laggedPair(Time lag)
{
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    Task a;
    a.modes.push_back({g1, 6, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g2, 2, {}});
    m.addTask(b);
    m.addStartLag(0, 1, lag);
    m.setHorizon(32);
    return m;
}

TEST(StartLags, ModelBookkeeping)
{
    Model m = laggedPair(3);
    EXPECT_TRUE(m.hasStartLags());
    ASSERT_EQ(m.lagSuccessors(0).size(), 1u);
    EXPECT_EQ(m.lagSuccessors(0)[0].other, 1);
    EXPECT_EQ(m.lagSuccessors(0)[0].lag, 3);
    ASSERT_EQ(m.lagPredecessors(1).size(), 1u);
    EXPECT_EQ(m.lagPredecessors(1)[0].other, 0);
    EXPECT_TRUE(m.predecessors(1).empty()); // not a finish-to-start.
    EXPECT_EQ(m.validate(), "");
}

TEST(StartLags, CheckScheduleEnforcesLag)
{
    Model m = laggedPair(3);
    ScheduleVec ok_schedule;
    ok_schedule.tasks = {{0, 0}, {0, 3}};
    EXPECT_EQ(checkSchedule(m, ok_schedule), "");
    ScheduleVec bad;
    bad.tasks = {{0, 0}, {0, 2}};
    EXPECT_NE(checkSchedule(m, bad).find("start lag"),
              std::string::npos);
}

TEST(StartLags, LagAllowsOverlapUnlikePrecedence)
{
    // With a lag of 3 the successor runs inside the predecessor's
    // execution window - impossible under a precedence edge.
    Model m = laggedPair(3);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    // a: [0,6); b: [3,5) -> makespan 6.
    EXPECT_EQ(r.makespan, 6);
}

TEST(StartLags, LongLagStretchesTheSchedule)
{
    Model m = laggedPair(10);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 12); // b starts at 10, ends at 12.
}

TEST(StartLags, ZeroLagAllowsSimultaneousStart)
{
    Model m = laggedPair(0);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 6);
}

TEST(StartLags, CriticalPathSeesLags)
{
    Model m = laggedPair(10);
    CriticalPathData cp = criticalPathData(m);
    EXPECT_EQ(cp.head[1], 10);
    EXPECT_EQ(cp.tail[0], 12); // lag 10 + duration 2 of successor.
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.criticalPath, 12);
}

TEST(StartLags, LpBoundSeesLags)
{
    Model m = laggedPair(10);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_GE(lb.lpRelaxation, 12);
}

TEST(StartLags, ListSchedulerHonoursLags)
{
    Model m = laggedPair(4);
    ListResult r = bestGreedy(m);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
    EXPECT_GE(r.schedule.tasks[1].start,
              r.schedule.tasks[0].start + 4);
}

TEST(StartLags, LagCycleIsRejected)
{
    Model m;
    for (int i = 0; i < 2; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 1, {}});
        m.addTask(t);
    }
    m.addStartLag(0, 1, 1);
    m.addStartLag(1, 0, 1);
    m.setHorizon(10);
    EXPECT_NE(m.validate().find("cycle"), std::string::npos);
}

TEST(StartLags, PipelinedChainWithInitiationInterval)
{
    // Three pipeline stages; each instance's stages are chained and
    // consecutive instances are separated by an initiation interval
    // of 2 on their first stages. Classic software-pipelining shape.
    Model m;
    int stage0 = m.addGroup("S0");
    int stage1 = m.addGroup("S1");
    std::vector<int> first_stage;
    for (int instance = 0; instance < 3; ++instance) {
        Task a;
        a.modes.push_back({stage0, 2, {}});
        int ai = m.addTask(a);
        Task b;
        b.modes.push_back({stage1, 2, {}});
        int bi = m.addTask(b);
        m.addPrecedence(ai, bi);
        if (!first_stage.empty())
            m.addStartLag(first_stage.back(), ai, 2);
        first_stage.push_back(ai);
    }
    m.setHorizon(40);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    // Perfect pipelining: starts at 0/2/4, last finishes at 8.
    EXPECT_EQ(r.makespan, 8);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
}

/**
 * A start-lag predecessor releases its successor for branching: from
 * a poor warm start the search must find the lagged optimum and prove
 * it, not report an exhausted tree after never placing task b.
 */
TEST(StartLags, SearchBranchesPastLagFromWarmStart)
{
    Model m = laggedPair(3);
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {0, 20}};
    ASSERT_EQ(checkSchedule(m, warm), "");
    ASSERT_EQ(warm.makespan(m), 22);
    for (int threads : {1, 2}) {
        SearchLimits limits;
        limits.threads = threads;
        SearchResult r = branchAndBound(m, &warm, limits);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        ASSERT_TRUE(r.foundSolution);
        EXPECT_TRUE(r.exhausted);
        EXPECT_EQ(r.bestMakespan, 6);
        EXPECT_EQ(checkSchedule(m, r.best), "");
    }
}

/**
 * Differential against exhaustive enumeration on small random models
 * with start lags: the search alone (no greedy warm start) must prove
 * the oracle's optimum or its infeasibility.
 */
class LaggedSearchOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LaggedSearchOracle, SearchMatchesExhaustiveOptimum)
{
    Rng rng(GetParam() * 7919 + 3);
    Model m;
    m.addResource(2.0, "res");
    int g = m.addGroup("G");
    const int n = 4;
    for (int i = 0; i < n; ++i) {
        Task t;
        int modes = 1 + static_cast<int>(rng.uniformInt(0, 1));
        for (int k = 0; k < modes; ++k) {
            Mode mode;
            mode.group = rng.chance(0.5) ? g : kNoGroup;
            mode.duration = static_cast<Time>(rng.uniformInt(1, 3));
            mode.usage = {rng.chance(0.5) ? 1.0 : 2.0};
            t.modes.push_back(mode);
        }
        m.addTask(t);
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            if (rng.chance(0.4))
                m.addStartLag(i, j,
                              static_cast<Time>(rng.uniformInt(0, 3)));
            else if (rng.chance(0.2))
                m.addPrecedence(i, j);
        }
    m.setHorizon(8);

    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    for (int threads : {1, 2}) {
        SearchLimits limits;
        limits.threads = threads;
        SearchResult r = branchAndBound(m, nullptr, limits);
        SCOPED_TRACE(threads);
        EXPECT_TRUE(r.exhausted);
        ASSERT_EQ(r.foundSolution, oracle.feasible);
        if (oracle.feasible) {
            EXPECT_EQ(r.bestMakespan, oracle.optimum);
            EXPECT_EQ(checkSchedule(m, r.best), "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LaggedSearchOracle,
                         ::testing::Range<uint64_t>(1, 17));

} // anonymous namespace
} // namespace cp
} // namespace hilp
