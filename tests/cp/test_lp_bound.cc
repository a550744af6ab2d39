/**
 * @file
 * Soundness of the LP relaxation bound: pinned Figure 7 instances on
 * which a larger formulation of the same LP (explicit x <= 1 rows,
 * artificials on every zero-rhs >= row) returned wrong optima, a
 * randomized oracle against cp/exhaustive, and the solver's check
 * that drops an LP bound a known schedule refutes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "baselines/gables.hh"
#include "cp/bounds.hh"
#include "cp/exhaustive.hh"
#include "cp/list_scheduler.hh"
#include "cp/solver.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace cp {
namespace {

Time
combinatorialBound(const LowerBounds &lb)
{
    return std::max({lb.criticalPath, lb.groupLoad, lb.resourceEnergy});
}

/** One Figure 7 instance and its LP optimum. */
struct PinnedLp
{
    const char *label;  //!< Test-name suffix.
    bool gables;        //!< Gables transform of the HILP spec.
    const char *config; //!< SocConfig::name() in the fig7 space.
    Time lp;            //!< LP relaxation bound.
};

void
PrintTo(const PinnedLp &pinned, std::ostream *os)
{
    *os << pinned.config << (pinned.gables ? " Gables" : " HILP");
}

/**
 * The instance the way the benchmark builds it: the Default workload
 * on the fig7 design space (DSA advantage 4, DSAs in priority order),
 * default constraints, 0.4 s steps and a 200-step horizon.
 */
Model
pinnedModel(const PinnedLp &pinned)
{
    const workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);
    arch::DesignSpace space;
    space.dsaAdvantage = 4.0;
    for (const arch::SocConfig &config : arch::enumerateDesignSpace(
             space, workload::dsaPriorityOrder())) {
        if (config.name() != pinned.config)
            continue;
        ProblemSpec spec =
            buildProblem(wl, config, arch::Constraints{});
        if (pinned.gables)
            spec = baselines::gablesTransform(spec);
        return discretize(spec, 0.4, 200).model;
    }
    ADD_FAILURE() << "no config " << pinned.config << " in the space";
    return Model();
}

class LpBoundPinned : public ::testing::TestWithParam<PinnedLp>
{};

/**
 * Each of these once read far from its optimum: 2,459,425, 154 and
 * 157 on the HILP instances (all have a 156-step schedule), 0 (phase
 * 1 reported the LP infeasible) and 105 on the Gables ones (104-step
 * schedules exist).
 */
TEST_P(LpBoundPinned, SolvesToTheRecordedOptimum)
{
    Model m = pinnedModel(GetParam());
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_EQ(lb.lpRelaxation, GetParam().lp);
    EXPECT_GE(lb.lpRelaxation, combinatorialBound(lb));
    EXPECT_GT(lb.lpPivots, 0);
    ListResult greedy = bestGreedy(m);
    ASSERT_TRUE(greedy.feasible);
    EXPECT_LE(lb.lpRelaxation, greedy.makespan);
}

/**
 * The solver keeps a sound LP bound and flushes the LP's work: one
 * cp.lp.solves, its pivots into cp.lp.pivots, no cp.bounds.lp_rejected.
 */
TEST_P(LpBoundPinned, SolverKeepsTheBoundAndCountsItsWork)
{
    Model m = pinnedModel(GetParam());
    const char *const names[] = {"cp.lp.solves", "cp.lp.pivots",
                                 "cp.bounds.lp_rejected"};
    auto snapshot = [&]() {
        std::vector<int64_t> values;
        for (const char *name : names)
            values.push_back(metrics::counter(name).value());
        return values;
    };
    std::vector<int64_t> before = snapshot();
    Result r = Solver().solve(m);
    std::vector<int64_t> after = snapshot();
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.stats.bounds.lpRelaxation, GetParam().lp);
    EXPECT_GE(r.lowerBound, GetParam().lp);
    EXPECT_EQ(after[0] - before[0], 1);
    EXPECT_EQ(after[1] - before[1], r.stats.bounds.lpPivots);
    EXPECT_EQ(after[2] - before[2], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7, LpBoundPinned,
    ::testing::Values(
        PinnedLp{"HilpC2G4D8", false, "(c2,g4,d8^16)", 156},
        PinnedLp{"HilpC2G64D8", false, "(c2,g64,d8^16)", 156},
        PinnedLp{"HilpC4G64D8", false, "(c4,g64,d8^16)", 156},
        PinnedLp{"GablesC2G4D9", true, "(c2,g4,d9^16)", 104},
        PinnedLp{"GablesC2G16D7", true, "(c2,g16,d7^16)", 104}),
    [](const ::testing::TestParamInfo<PinnedLp> &info) {
        return std::string(info.param.label);
    });

TEST(LpBoundRefutation, DropsOnlyAnLpAboveTheSchedule)
{
    LowerBounds lb;
    lb.criticalPath = 5;
    lb.groupLoad = 3;
    lb.resourceEnergy = 4;
    lb.lpRelaxation = 9;
    EXPECT_FALSE(lb.dropRefutedLp(9)); // A 9-step schedule agrees.
    EXPECT_EQ(lb.best(), 9);
    EXPECT_TRUE(lb.dropRefutedLp(8));
    EXPECT_EQ(lb.lpRelaxation, 0);
    EXPECT_EQ(lb.best(), 5);
}

/**
 * Randomized oracle: on small models with two groups, two resources,
 * precedence and start lags, the LP bound lies between the
 * combinatorial bounds and the exhaustive optimum. Some modes exceed
 * a capacity, so the LP's dropped columns are exercised too.
 */
class LpBoundOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LpBoundOracle, LpLiesBetweenCombinatorialAndOptimum)
{
    Rng rng(GetParam() * 7919 + 3);
    Model m;
    m.addResource(2.0, "r0");
    m.addResource(3.0, "r1");
    const int groups[] = {kNoGroup, m.addGroup("G0"), m.addGroup("G1")};
    const int n = 4;
    for (int i = 0; i < n; ++i) {
        Task t;
        int modes = 1 + static_cast<int>(rng.uniformInt(0, 1));
        for (int mo = 0; mo < modes; ++mo) {
            Mode mode;
            mode.group = groups[rng.uniformInt(0, 2)];
            mode.duration = static_cast<Time>(rng.uniformInt(1, 3));
            // Mode 0 always fits; a later mode may need 3 units of
            // the 2-unit resource and so can never run.
            mode.usage = {
                static_cast<double>(rng.uniformInt(0, mo == 0 ? 2 : 3)),
                static_cast<double>(rng.uniformInt(0, 3))};
            t.modes.push_back(mode);
        }
        m.addTask(t);
    }
    for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
            if (rng.chance(0.3))
                m.addPrecedence(a, b);
            else if (rng.chance(0.2))
                m.addStartLag(a, b,
                              static_cast<Time>(rng.uniformInt(0, 3)));
        }
    }
    m.setHorizon(10);

    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_GE(lb.lpRelaxation, combinatorialBound(lb));

    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    if (oracle.feasible)
        EXPECT_LE(lb.lpRelaxation, oracle.optimum);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LpBoundOracle,
                         ::testing::Range<uint64_t>(1, 41));

} // anonymous namespace
} // namespace cp
} // namespace hilp
