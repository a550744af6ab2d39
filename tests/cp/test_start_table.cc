/**
 * @file
 * Differential tests for the branch-and-bound's per-node
 * earliest-start table. Random place/undo chains walk a search path
 * the way the B&B does (eligible tasks only, at their tabled starts),
 * and at every node each tabled start must equal a fresh
 * Profile::earliestStart from the task's est and the dense
 * Timetable's answer - or be marked pruned when that start cannot
 * beat the (falling) incumbent. The option lists must match the ones
 * a from-scratch enumeration builds, order included.
 *
 * The models mix zero-duration modes, modes that never fit the short
 * horizon, shared groups and saturating resources, so every
 * derivation path runs: carry-over, group overlap, shared-resource
 * overlap (still fits and re-sweep), fresh sweeps for newly eligible
 * tasks, and pruned entries. One variant spreads usage over 70
 * resources.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cp/bounds.hh"
#include "cp/model.hh"
#include "cp/profile.hh"
#include "cp/start_table.hh"
#include "cp/timetable.hh"
#include "support/arena.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * Random multi-mode model with a sparse precedence DAG. Durations
 * include 0 and values that reach past the horizon; usage includes
 * zeros and near-capacity amounts.
 */
Model
fuzzModel(uint64_t seed, int num_resources)
{
    Rng rng(seed * 7919 + 101);
    Model m;
    for (int r = 0; r < num_resources; ++r)
        m.addResource(rng.uniformDouble(1.0, 2.5), format("r%d", r));
    const int groups[] = {m.addGroup("A"), m.addGroup("B")};
    const int n = static_cast<int>(rng.uniformInt(6, 10));
    for (int i = 0; i < n; ++i) {
        Task task;
        task.name = format("t%d", i);
        const int nm = static_cast<int>(rng.uniformInt(1, 4));
        for (int k = 0; k < nm; ++k) {
            Mode mode;
            double which = rng.uniformDouble();
            mode.group = which < 0.35 ? groups[0]
                       : which < 0.7  ? groups[1]
                                      : kNoGroup;
            mode.duration = rng.chance(0.15)
                ? 0 : static_cast<Time>(rng.uniformInt(1, 7));
            mode.usage.assign(static_cast<size_t>(num_resources), 0.0);
            // Touch a few resources, the high indices included.
            const int touched = static_cast<int>(rng.uniformInt(0, 3));
            for (int j = 0; j < touched; ++j) {
                const int r = static_cast<int>(
                    rng.uniformInt(0, num_resources - 1));
                mode.usage[static_cast<size_t>(r)] =
                    rng.uniformDouble(0.2, 1.4);
            }
            task.modes.push_back(std::move(mode));
        }
        m.addTask(std::move(task));
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.chance(0.15))
                m.addPrecedence(i, j);
    m.setHorizon(static_cast<Time>(rng.uniformInt(3 * n, 5 * n)));
    return m;
}

/** One level of the walked search path. */
struct Level
{
    Time *starts = nullptr;
    int placed = -1;
    std::unique_ptr<support::Arena::Scope> scope;
};

/** A B&B-like walk over one model, checking every node's table. */
class Walk
{
  public:
    Walk(const Model &m, uint64_t seed)
        : m_(m),
          rng_(seed * 31 + 7),
          cp_(criticalPathData(m)),
          profile_(m),
          dense_(m),
          table_(m, cp_, profile_),
          assign_(static_cast<size_t>(m.numTasks())),
          end_(static_cast<size_t>(m.numTasks()), 0),
          remaining_(static_cast<size_t>(m.numTasks()), 0),
          ub_(m.horizon() + 1)
    {
        for (int t = 0; t < m.numTasks(); ++t) {
            remaining_[t] = static_cast<int>(m.predecessors(t).size());
            if (remaining_[t] == 0)
                eligible_.push_back(t);
        }
    }

    /** Run `steps` random descents/backtracks. */
    void
    run(int steps)
    {
        enter(nullptr, -1);
        for (int step = 0;
             step < steps && !::testing::Test::HasFatalFailure();
             ++step) {
            // A falling incumbent, as the search sees it.
            if (rng_.chance(0.15) && ub_ > 1)
                ub_ -= static_cast<Time>(rng_.uniformInt(1, 3));
            if (path_.size() > 1 &&
                (eligible_.empty() || rng_.chance(0.35))) {
                backtrack();
                checkNode();
                continue;
            }
            descend();
        }
        while (path_.size() > 1)
            backtrack();
    }

    int64_t pruned() const { return pruned_; }
    int64_t infeasible() const { return infeasible_; }

  private:
    Time
    est(int t) const
    {
        Time est = 0;
        for (int p : m_.predecessors(t))
            est = std::max(est, end_[p]);
        return est;
    }

    /** Build the table of the node just entered, then check it. */
    void
    enter(const Time *parent, int placed)
    {
        Level level;
        level.placed = placed;
        level.scope = std::make_unique<support::Arena::Scope>(&arena_);
        const int64_t before = table_.sweeps() + table_.reused();
        level.starts = table_.build(arena_, eligible_, parent, placed,
                                    assign_, end_, ub_);
        int64_t entries = 0;
        for (int t : eligible_)
            entries += static_cast<int64_t>(m_.task(t).modes.size());
        // Every entry is either swept or filled without a sweep.
        ASSERT_EQ(table_.sweeps() + table_.reused() - before, entries);
        path_.push_back(std::move(level));
        checkNode();
    }

    /** Every tabled start against the fresh and dense oracles. */
    void
    checkNode()
    {
        Time *starts = path_.back().starts;
        for (int t : eligible_) {
            const Time tail = table_.tailAfter(t);
            for (const Mode &mode : m_.task(t).modes) {
                const Time fresh = profile_.earliestStart(mode, est(t));
                ASSERT_EQ(fresh, dense_.earliestStart(mode, est(t)));
                const Time got = starts[mode.id];
                if (got == StartTable::kPruned) {
                    ++pruned_;
                    EXPECT_TRUE(fresh < 0 ||
                                fresh + mode.duration + tail >= ub_)
                        << "task " << t << " mode " << mode.id
                        << " pruned at start " << fresh << ", ub "
                        << ub_;
                } else {
                    infeasible_ += got < 0;
                    ASSERT_EQ(got, fresh)
                        << "task " << t << " mode " << mode.id;
                }
            }
        }
    }

    void
    descend()
    {
        if (eligible_.empty())
            return;
        const int t = eligible_[static_cast<size_t>(rng_.uniformInt(
            0, static_cast<int64_t>(eligible_.size()) - 1))];
        Level &level = path_.back();
        const Task &task = m_.task(t);

        // The option list the search would branch over must match a
        // from-scratch enumeration, order included.
        std::vector<StartTable::Option> options(task.modes.size());
        const size_t count =
            table_.options(t, level.starts, ub_, options.data());
        options.resize(count);
        std::vector<StartTable::Option> expected;
        for (size_t k = 0; k < task.modes.size(); ++k) {
            const Mode &mode = task.modes[k];
            const Time start = profile_.earliestStart(mode, est(t));
            if (start >= 0 &&
                start + mode.duration + table_.tailAfter(t) < ub_)
                expected.push_back({static_cast<int>(k), start,
                                    start + mode.duration});
        }
        std::sort(expected.begin(), expected.end(),
                  [](const StartTable::Option &a,
                     const StartTable::Option &b) {
                      return a.complete < b.complete;
                  });
        ASSERT_EQ(options.size(), expected.size());
        for (size_t k = 0; k < count; ++k) {
            EXPECT_EQ(options[k].mode, expected[k].mode);
            EXPECT_EQ(options[k].start, expected[k].start);
        }
        if (count == 0)
            return;

        // Place one of the options, like the search does.
        const StartTable::Option &opt = options[static_cast<size_t>(
            rng_.uniformInt(0, static_cast<int64_t>(count) - 1))];
        const Mode &mode = task.modes[static_cast<size_t>(opt.mode)];
        profile_.place(mode, opt.start);
        dense_.place(mode, opt.start);
        assign_[t] = {opt.mode, opt.start};
        end_[t] = opt.complete;
        eligible_.erase(std::find(eligible_.begin(), eligible_.end(), t));
        for (int s : m_.successors(t))
            if (--remaining_[s] == 0)
                eligible_.push_back(s);
        enter(level.starts, t);
    }

    void
    backtrack()
    {
        const int t = path_.back().placed;
        path_.pop_back(); // Releases the child's table.
        const Mode &mode = m_.task(t).modes[static_cast<size_t>(
            assign_[t].mode)];
        profile_.remove(mode, assign_[t].start);
        dense_.remove(mode, assign_[t].start);
        for (int s : m_.successors(t))
            if (remaining_[s]++ == 0)
                eligible_.erase(
                    std::find(eligible_.begin(), eligible_.end(), s));
        eligible_.push_back(t);
        assign_[t] = Assignment{};
        end_[t] = 0;
    }

    const Model &m_;
    Rng rng_;
    CriticalPathData cp_;
    Profile profile_;
    Timetable dense_;
    StartTable table_;
    support::Arena arena_;
    std::vector<Level> path_;
    std::vector<Assignment> assign_;
    std::vector<Time> end_;
    std::vector<int> remaining_;
    std::vector<int> eligible_;
    Time ub_;
    int64_t pruned_ = 0;
    int64_t infeasible_ = 0;
};

class StartTableDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StartTableDiff, MatchesFreshSweepsAndDenseTimetable)
{
    Model m = fuzzModel(GetParam(), 2);
    Walk walk(m, GetParam());
    walk.run(400);
}

TEST_P(StartTableDiff, ManyResources)
{
    Model m = fuzzModel(GetParam(), 70);
    Walk walk(m, GetParam());
    walk.run(400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StartTableDiff,
                         ::testing::Range<uint64_t>(1, 17));

/** The walks above really reach the pruned and infeasible paths. */
TEST(StartTable, WalksCoverPrunedAndInfeasibleEntries)
{
    int64_t pruned = 0;
    int64_t infeasible = 0;
    for (uint64_t seed = 1; seed < 17; ++seed) {
        Model m = fuzzModel(seed, 2);
        Walk walk(m, seed);
        walk.run(400);
        pruned += walk.pruned();
        infeasible += walk.infeasible();
    }
    EXPECT_GT(pruned, 0);
    EXPECT_GT(infeasible, 0);
}

/** A hand-checked chain through each derivation rule. */
TEST(StartTable, DerivationRules)
{
    Model m;
    m.addResource(2.0, "power");
    const int gpu = m.addGroup("GPU");
    m.addTask({"a", {{gpu, 4, {1.5}}}});              // placed first
    m.addTask({"b", {{gpu, 2, {0.0}},                 // group overlap
                     {kNoGroup, 3, {1.0}},            // resource clash
                     {kNoGroup, 3, {0.4}},            // still fits
                     {kNoGroup, 0, {2.0}},            // zero duration
                     {kNoGroup, 20, {0.0}}}});        // never fits
    m.setHorizon(10);
    CriticalPathData cp = criticalPathData(m);
    Profile profile(m);
    StartTable table(m, cp, profile);
    support::Arena arena;

    std::vector<Assignment> assign(2);
    std::vector<Time> end(2, 0);
    const Time ub = 100;
    const Time *root = table.build(arena, {0, 1}, nullptr, -1, assign,
                                   end, ub);
    const Task &b = m.task(1);
    for (const Mode &mode : b.modes)
        EXPECT_EQ(root[mode.id], mode.duration == 20 ? -1 : 0);

    const Mode &a = m.task(0).modes[0];
    profile.place(a, 0);
    assign[0] = {0, 0};
    end[0] = 4;
    const int64_t sweeps_before = table.sweeps();
    const Time *child = table.build(arena, {1}, root, 0, assign, end, ub);
    EXPECT_EQ(child[b.modes[0].id], 4); // after the GPU interval
    EXPECT_EQ(child[b.modes[1].id], 4); // 1.5 + 1.0 > 2.0 until 4
    EXPECT_EQ(child[b.modes[2].id], 0); // 1.5 + 0.4 still fits
    EXPECT_EQ(child[b.modes[3].id], 0); // zero duration: carried
    EXPECT_EQ(child[b.modes[4].id], -1);
    EXPECT_EQ(table.sweeps() - sweeps_before, 2);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
