/** @file Unit tests for the branch-and-bound search. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "arch/soc.hh"
#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "workload/rodinia.hh"

#include "pinned_model.hh"

namespace hilp {
namespace cp {
namespace {

Model
twoDeviceModel()
{
    // Four tasks, each 2 steps on either of two devices: optimum 4.
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    for (int i = 0; i < 4; ++i) {
        Task t;
        t.modes.push_back({g1, 2, {}});
        t.modes.push_back({g2, 2, {}});
        m.addTask(t);
    }
    m.setHorizon(20);
    return m;
}

TEST(Search, FindsOptimumWithoutWarmStart)
{
    Model m = twoDeviceModel();
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 4);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

TEST(Search, WarmStartOnlyImproves)
{
    Model m = twoDeviceModel();
    // A deliberately bad but feasible warm start: everything on A.
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {0, 2}, {0, 4}, {0, 6}};
    ASSERT_EQ(checkSchedule(m, warm), "");
    SearchLimits limits;
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_EQ(r.bestMakespan, 4);
    EXPECT_GE(r.solutions, 1);
}

TEST(Search, OptimalWarmStartIsKept)
{
    Model m = twoDeviceModel();
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {1, 0}, {0, 2}, {1, 2}};
    ASSERT_EQ(checkSchedule(m, warm), "");
    SearchLimits limits;
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 4);
    // No strictly better schedule exists, so no new incumbents.
    EXPECT_EQ(r.solutions, 0);
}

TEST(Search, NodeLimitStopsSearch)
{
    Model m = twoDeviceModel();
    SearchLimits limits;
    limits.maxNodes = 1;
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_FALSE(r.exhausted);
    EXPECT_LE(r.nodes, 2);
}

TEST(Search, TargetGapStopsEarly)
{
    Model m = twoDeviceModel();
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {1, 0}, {0, 2}, {1, 2}};
    SearchLimits limits;
    limits.targetGap = 0.5;
    limits.lowerBound = 3; // gap (4-3)/4 = 0.25 <= 0.5.
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_FALSE(r.exhausted); // stopped by the gap, not exhaustion.
    EXPECT_EQ(r.nodes, 0);
}

TEST(Search, ProvesInfeasibilityByExhaustion)
{
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({g, 3, {}});
        m.addTask(t);
    }
    m.setHorizon(8); // needs 9 steps on one device.
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_FALSE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
}

TEST(Search, PrecedenceAcrossDevicesHandled)
{
    // a (dev A, 3) -> b (dev B, 2); independent c (dev B, 4).
    // Optimum: c at 0 on B, a at 0 on A, b at 4 -> makespan 6.
    // (b at 3 would collide with c; b after c is 6.)
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    Task a;
    a.modes.push_back({g1, 3, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g2, 2, {}});
    m.addTask(b);
    Task c;
    c.modes.push_back({g2, 4, {}});
    m.addTask(c);
    m.addPrecedence(0, 1);
    m.setHorizon(20);
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 6);
}

TEST(Search, CumulativeResourcePacking)
{
    // Capacity 2, four unit-usage tasks of 3 steps: two at a time,
    // optimum 6.
    Model m;
    m.addResource(2.0, "r");
    for (int i = 0; i < 4; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 3, {1.0}});
        m.addTask(t);
    }
    m.setHorizon(20);
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_EQ(r.bestMakespan, 6);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

/** Exact outcome of one search, recorded before the start table. */
struct PinnedSearch
{
    uint64_t seed;
    int64_t nodes;
    int64_t backtracks;
    int64_t solutions;
    Time makespan;
};

/**
 * Node, backtrack and incumbent counts of the default search on the
 * random models, recorded when every node still swept every start
 * from scratch. The start table (start_table.hh) stores exactly the
 * values those sweeps returned, so the trees must not move. A leaf
 * counts as a solution only when it strictly beats the incumbent.
 */
constexpr PinnedSearch kPinnedSearches[] = {
    {1, 37, 6, 1, 8},          {2, 40, 7, 1, 7},
    {3, 1309, 1249, 2, 8},     {4, 1225, 1075, 2, 11},
    {5, 98, 78, 1, 8},         {6, 486, 444, 2, 8},
    {7, 430, 279, 1, 5},       {8, 25, 7, 1, 7},
    {9, 126, 113, 1, 6},       {10, 2282, 2109, 1, 10},
    {11, 2042, 1956, 2, 8},    {12, 101, 76, 1, 6},
};

/** Test names show the seed. */
void
PrintTo(const PinnedSearch &pin, std::ostream *os)
{
    *os << pin.seed;
}

class PinnedTree : public ::testing::TestWithParam<PinnedSearch>
{};

TEST_P(PinnedTree, MatchesRecordedSearch)
{
    const PinnedSearch &pin = GetParam();
    Model m = pinnedSearchModel(pin.seed);
    SearchResult r = branchAndBound(m, nullptr, SearchLimits{});

    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.nodes, pin.nodes);
    EXPECT_EQ(r.backtracks, pin.backtracks);
    EXPECT_EQ(r.solutions, pin.solutions);
    EXPECT_EQ(r.bestMakespan, pin.makespan);
    EXPECT_EQ(checkSchedule(m, r.best), "");
    EXPECT_GT(r.startSweeps, 0);
    EXPECT_GT(r.startsReused, 0);
    // The node arena rewinds as the search backtracks, and the
    // scratch growth during the walk is bounded by the one-time pool
    // warm-up (steady state allocates nothing per node).
    EXPECT_GT(r.arenaRewinds, 0);
    EXPECT_GT(r.arenaHighWater, 0);
    EXPECT_GE(r.scratchBytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PinnedTree, ::testing::ValuesIn(kPinnedSearches),
    [](const ::testing::TestParamInfo<PinnedSearch> &info) {
        return std::to_string(info.param.seed);
    });

/**
 * The two node-capped instances of bench/solver_micro (the 50 W
 * exact solve and explore-hard), with the wall clock lifted so the
 * node caps alone stop them: the whole solver, bounds and greedy
 * included, must reproduce the recorded search exactly.
 */
TEST(PinnedSolverMicro, NodeCappedInstances)
{
    struct Pinned
    {
        workload::Variant variant;
        double targetGap;
        int64_t maxNodes;
        int64_t backtracks;
        Time makespan;
        Time lowerBound;
    };
    const Pinned pins[] = {
        {workload::Variant::Optimized, 0.0, 500000, 499973, 73, 62},
        {workload::Variant::Default, 0.10, 1000000, 999976, 81, 67},
    };
    arch::Constraints constraints;
    constraints.powerBudgetW = 50.0;
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 64;
    for (const Pinned &pin : pins) {
        ProblemSpec spec = buildProblem(
            workload::makeWorkload(pin.variant), soc, constraints);
        Model model = discretize(spec, 2.0, 1000).model;
        SolverOptions options;
        options.maxSeconds = 1e6;
        options.maxNodes = pin.maxNodes;
        options.targetGap = pin.targetGap;
        Result r = Solver(options).solve(model);
        EXPECT_EQ(r.stats.nodes, pin.maxNodes);
        EXPECT_EQ(r.stats.backtracks, pin.backtracks);
        EXPECT_EQ(r.stats.solutions, 0);
        EXPECT_EQ(r.makespan, pin.makespan);
        EXPECT_EQ(r.lowerBound, pin.lowerBound);
        EXPECT_EQ(r.status, SolveStatus::Feasible);
        // Most (task, mode) starts carry over from the parent node.
        EXPECT_GT(r.stats.startsReused, r.stats.startSweeps);
    }
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
