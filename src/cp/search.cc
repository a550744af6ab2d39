#include "search.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bounds.hh"
#include "profile.hh"
#include "propagate.hh"
#include "start_table.hh"
#include "support/arena.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {

namespace {

using Clock = std::chrono::steady_clock;

/** Sentinel "no bound known" value (empty aggregator). */
constexpr Time kInfTime = std::numeric_limits<Time>::max();

/** Default frontier split depth when SearchLimits::splitDepth is 0. */
constexpr int kAutoSplitDepth = 4;

/**
 * Local nodes between polls of the wall clock, and between updates of
 * the shared node count. The shared count advances in these
 * increments, so an opportunistic search may overshoot maxNodes by up
 * to threads * kBudgetBatch nodes (the serial search's limit is
 * exact).
 */
constexpr int64_t kBudgetBatch = 64;

/** One trace instant per this many local nodes (power of two). */
constexpr int64_t kNodeTraceSample = 8192;

/** Starved-worker polls before parking on the condition variable. */
constexpr int kIdleSpinIters = 64;

/** Parked-wait backoff bounds (exponential doubling between). */
constexpr int64_t kIdleSleepMinUs = 64;
constexpr int64_t kIdleSleepMaxUs = 1024;

/** Relative gap (ub - lb) / ub of an incumbent; 0 when ub <= 0. */
double
gapOf(Time ub, Time lb)
{
    if (ub <= 0)
        return 0.0;
    return static_cast<double>(ub - lb) / static_cast<double>(ub);
}

/** True when an incumbent `ub` is within `target` of the bound `lb`. */
bool
withinGap(Time ub, Time lb, double target)
{
    return target > 0.0 && (ub <= 0 || gapOf(ub, lb) <= target);
}

/** One branching decision on the path from the root. */
struct Decision
{
    int task;
    int mode;
    Time start;
};

/**
 * A subtree of the search, identified by its decision prefix, plus a
 * certified lower bound on the makespan of every schedule inside it.
 */
struct Subproblem
{
    std::vector<Decision> prefix;
    Time bound = 0;
};

/**
 * The globally best schedule. The makespan is a lock-free atomic so
 * every pruning test is one acquire load; the schedule itself is
 * published under a mutex by whichever worker wins the CAS, so the
 * stored schedule always matches the lowest makespan published so
 * far.
 */
class SharedIncumbent
{
  public:
    SharedIncumbent(Time initial_ub, bool warm_started)
        : ub_(initial_ub), warmStarted_(warm_started)
    {}

    Time ub() const { return ub_.load(std::memory_order_acquire); }

    bool
    found() const
    {
        return warmStarted_ ||
               improvements_.load(std::memory_order_acquire) > 0;
    }

    int64_t
    improvements() const
    {
        return improvements_.load(std::memory_order_acquire);
    }

    /**
     * Install a strictly better incumbent. Returns false when a
     * concurrent offer is at least as good.
     */
    bool
    offer(Time makespan, const std::vector<Assignment> &assign)
    {
        Time cur = ub_.load(std::memory_order_relaxed);
        while (makespan < cur) {
            if (!ub_.compare_exchange_weak(cur, makespan,
                                           std::memory_order_acq_rel))
                continue;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                // Two winning CAS-es can publish out of order; keep
                // the schedule matching the lowest makespan.
                if (!published_ || makespan < publishedMakespan_) {
                    best_.tasks = assign;
                    publishedMakespan_ = makespan;
                    published_ = true;
                }
            }
            improvements_.fetch_add(1, std::memory_order_acq_rel);
            return true;
        }
        return false;
    }

    /**
     * The best schedule offered. Only call after the workers have
     * joined, and only when improvements() > 0.
     */
    const ScheduleVec &best() const { return best_; }

  private:
    std::atomic<Time> ub_;
    std::atomic<int64_t> improvements_{0};
    std::mutex mutex_;
    ScheduleVec best_;
    Time publishedMakespan_ = 0;
    bool published_ = false;
    bool warmStarted_ = false;
};

/**
 * Multiset of the lower bounds of every queued or in-flight
 * subproblem. Its minimum is a certified lower bound on anything the
 * remaining search can still find, so
 * max(externalLB, min(incumbent, min())) is a sound global lower
 * bound for the targetGap stop — typically much tighter than the
 * external bound alone once the easy subtrees finish. Operations are
 * per-subproblem (coarse), so the mutex sees little contention.
 */
class BoundAggregator
{
  public:
    void
    add(Time bound)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bounds_.insert(bound);
    }

    void
    remove(Time bound)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = bounds_.find(bound);
        hilp_assert(it != bounds_.end());
        bounds_.erase(it);
    }

    /** Smallest registered bound, or kInfTime when none remain. */
    Time
    min() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bounds_.empty() ? kInfTime : *bounds_.begin();
    }

  private:
    mutable std::mutex mutex_;
    std::multiset<Time> bounds_;
};

/**
 * A per-worker deque with the Chase–Lev ownership discipline: the
 * owner pushes and pops at the bottom (depth-first order), thieves
 * take half from the top — the shallowest prefixes, i.e. the largest
 * subtrees. Guarded by a mutex: subproblems are coarse (a worker
 * touches the deque once per subtree, not per node), so lock traffic
 * is negligible next to the search itself.
 */
class WorkDeque
{
  public:
    void
    push(Subproblem &&sub)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(sub));
    }

    bool
    pop(Subproblem *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        *out = std::move(queue_.back());
        queue_.pop_back();
        return true;
    }

    /** Move the top half (at least one) of the deque into *out. */
    size_t
    steal(std::vector<Subproblem> *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t take = (queue_.size() + 1) / 2;
        for (size_t i = 0; i < take; ++i) {
            out->push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        return take;
    }

  private:
    std::mutex mutex_;
    std::deque<Subproblem> queue_;
};

/** Everything the workers of one search share. */
struct Shared
{
    const Model &model;
    const SearchLimits &limits;
    CriticalPathData cp;
    SharedIncumbent incumbent;
    BoundAggregator aggregator;
    std::vector<WorkDeque> deques;
    Clock::time_point startTime;
    int threads;
    int splitDepth;
    /**
     * Spill children once `pending` (queued + in-flight) drops below
     * this. With some worker idle, in-flight == threads - idle, so
     * the condition fires when fewer subproblems queue than workers
     * starve.
     */
    int64_t lowWater;

    /**
     * Subproblems queued on any deque *or* claimed and still being
     * processed. A claimed subproblem stays counted until process()
     * returns, so once this counter reads 0 no unexplored work can
     * exist anywhere: new subproblems are only published from inside
     * process() (whose own subproblem is still counted), which makes
     * 0 an absorbing state and a single acquire load of it a sound
     * termination test — no multi-variable snapshot needed.
     */
    std::atomic<int64_t> pending{0};
    /**
     * Workers currently looking for work. Drives the spill
     * heuristic only; termination rests on `pending` alone.
     */
    std::atomic<int> idle{0};
    /** The target gap was reached; everyone unwinds. */
    std::atomic<bool> gapStop{false};
    /** A node or wall-clock budget was hit; everyone unwinds. */
    std::atomic<bool> limitHit{false};
    /** All subproblems are done and every worker is idle. */
    std::atomic<bool> allDone{false};
    /** Batched global node count for budget checks. */
    std::atomic<int64_t> nodesApprox{0};

    /** Parking lot for starving workers (see Worker::waitForWork). */
    std::mutex waitMutex;
    std::condition_variable waitCv;

    /**
     * Wake parked workers: new work was published or a stop flag was
     * set. The empty critical section serializes with a waiter
     * between its predicate check and its wait, so a notification
     * cannot fall into that gap; the timed wait bounds the cost of
     * any race this cheap handshake still leaves.
     */
    void
    wake()
    {
        { std::lock_guard<std::mutex> lock(waitMutex); }
        waitCv.notify_all();
    }

    /** Raise a shared stop flag and wake everyone to see it. */
    void
    stop(std::atomic<bool> &flag)
    {
        flag.store(true, std::memory_order_relaxed);
        wake();
    }

    Shared(const Model &model_in, const SearchLimits &limits_in,
           Time initial_ub, const ScheduleVec *warm, int threads_in)
        : model(model_in),
          limits(limits_in),
          cp(criticalPathData(model_in)),
          incumbent(initial_ub, warm != nullptr),
          deques(static_cast<size_t>(threads_in)),
          startTime(Clock::now()),
          threads(threads_in),
          splitDepth(limits_in.splitDepth > 0 ? limits_in.splitDepth
                                              : kAutoSplitDepth),
          lowWater(threads_in)
    {}

    /** True once the wall-clock budget or the deadline has passed. */
    bool
    outOfTime() const
    {
        Clock::time_point now = Clock::now();
        return now >= limits.deadline ||
               std::chrono::duration<double>(now - startTime).count() >=
                   limits.maxSeconds;
    }
};

/**
 * The node-expansion kernel: a private propagation engine, start
 * table and node arena plus the branching state (assignment, eligible
 * set, decision path) of one depth-first walk.
 *
 * Branching: eligible tasks longest tail first, their (mode, start)
 * options by completion, pruned by completion plus tail against the
 * incumbent (all from the StartTable). The drivers differ only in
 * the incumbent a worker prunes against and where its subtrees come
 * from:
 *
 *  - serial: one worker with a private incumbent, run from the root;
 *  - opportunistic: the shared incumbent, with children spilled as
 *    stealable subproblems onto the shared deques.
 *
 * Both drivers cover the same schedule space, so the returned optima
 * match (the differential tests in tests/cp/test_parallel_search.cc
 * hold this).
 */
class Worker
{
  public:
    Worker(Shared &shared, int id)
        : shared_(shared),
          model_(shared.model),
          limits_(shared.limits),
          id_(id),
          private_(shared.threads == 1),
          n_(shared.model.numTasks()),
          engine_(shared.model),
          table_(shared.model, shared.cp, engine_.profile())
    {
        engine_.add(makeTimetablePropagator(model_));
        engine_.add(makeDisjunctivePropagator(model_));
        engine_.add(makePrecedencePropagator(model_));

        assign_.assign(n_, Assignment{});
        end_.assign(n_, 0);
        remainingPreds_.assign(n_, 0);
        for (int t = 0; t < n_; ++t) {
            remainingPreds_[t] =
                static_cast<int>(model_.predecessors(t).size()) +
                static_cast<int>(model_.lagPredecessors(t).size());
        }
        eligiblePos_.assign(n_, -1);
        for (int t = 0; t < n_; ++t)
            if (remainingPreds_[t] == 0)
                addEligible(t);

        privUb_ = shared.incumbent.ub();

        scratchBaseline_ = scratchHeapBytes();
    }

    // -- Telemetry, read by the driver after the join. ------------
    /** Fold this worker's counters into `result`. */
    void
    mergeInto(SearchResult &result, int64_t *arena_heap) const
    {
        result.nodes += nodes_;
        result.backtracks += backtracks_;
        result.solutions += solutions_;
        result.steals += steals_;
        result.subproblems += published_;
        result.startSweeps += table_.sweeps();
        result.startsReused += table_.reused();
        // Scratch heap growth since construction (steady state: 0).
        result.scratchBytes += scratchHeapBytes() - scratchBaseline_;
        result.arenaHighWater += static_cast<int64_t>(
            nodeArena_.highWater() + engine_.stateArena().highWater());
        result.arenaRewinds +=
            nodeArena_.rewinds() + engine_.stateArena().rewinds();
        *arena_heap += static_cast<int64_t>(
            nodeArena_.heapBytes() + engine_.stateArena().heapBytes());
        mergePropagatorStats(result.propagators, engine_.stats());
    }

    /**
     * Serial mode: search the whole tree from the root against the
     * private incumbent, and report what it found into `result`.
     */
    void
    runSerial(SearchResult &result)
    {
        dfs(0, nullptr, -1);
        if (solutions_ > 0) {
            // Each find strictly improves on the warm start.
            result.foundSolution = true;
            result.bestMakespan = privUb_;
            result.best = privBest_;
        }
        result.exhausted = !localStop_ && !localLimit_;
    }

    /** Opportunistic mode: pop, steal, search, spill, repeat. */
    void
    runOpportunistic()
    {
        trace::Span span("cp.search.worker",
                         trace::Arg::intArg("worker", id_));
        while (!abortRequested()) {
            Subproblem sub;
            if (shared_.deques[id_].pop(&sub)) {
                process(sub);
                continue;
            }
            if (trySteal(&sub)) {
                process(sub);
                continue;
            }
            if (!waitForWork(&sub))
                break;
            process(sub);
        }
        // Flush the node-count remainder of the last batch.
        shared_.nodesApprox.fetch_add(nodes_ & (kBudgetBatch - 1),
                                      std::memory_order_relaxed);
        span.arg(trace::Arg::intArg("nodes", nodes_));
        span.arg(trace::Arg::intArg("steals", steals_));
    }

  private:
    void
    addEligible(int t)
    {
        eligiblePos_[t] = static_cast<int>(eligible_.size());
        eligible_.push_back(t);
    }

    /**
     * O(1) swap-remove from the eligible set. The set's internal
     * order is irrelevant: every node copies and re-sorts it into
     * its branch order, so branching stays deterministic.
     */
    void
    removeEligible(int t)
    {
        int pos = eligiblePos_[t];
        hilp_assert(pos >= 0 && eligible_[pos] == t);
        int last = eligible_.back();
        eligible_[pos] = last;
        eligiblePos_[last] = pos;
        eligible_.pop_back();
        eligiblePos_[t] = -1;
    }

    /**
     * Call f(s) for each task s whose eligibility counts task t:
     * finish-to-start successors and start-lag successors alike.
     */
    template <typename F>
    void
    forEachSuccessor(int t, F f) const
    {
        for (int s : model_.successors(t))
            f(s);
        for (const Model::LagEdge &edge : model_.lagSuccessors(t))
            f(edge.other);
    }

    /** Commit one decision; returns its completion time. */
    Time
    apply(const Decision &d)
    {
        const Mode &mode = model_.task(d.task).modes[
            static_cast<size_t>(d.mode)];
        // The engine updates the profile, every propagator's
        // incremental state, and the trail.
        engine_.place(d.task, mode, d.start);
        assign_[d.task] = {d.mode, d.start};
        end_[d.task] = d.start + mode.duration;
        ++scheduled_;
        removeEligible(d.task);
        forEachSuccessor(d.task, [this](int s) {
            if (--remainingPreds_[s] == 0)
                addEligible(s);
        });
        path_.push_back(d);
        return end_[d.task];
    }

    /** Take back the last decision of the path. */
    void
    undo()
    {
        hilp_assert(!path_.empty());
        const Decision d = path_.back();
        path_.pop_back();
        forEachSuccessor(d.task, [this](int s) {
            if (remainingPreds_[s]++ == 0)
                removeEligible(s);
        });
        addEligible(d.task);
        --scheduled_;
        assign_[d.task] = Assignment{};
        end_[d.task] = 0;
        engine_.undo();
    }

    /** The upper bound this worker prunes against right now. */
    Time
    currentUb() const
    {
        return private_ ? privUb_ : shared_.incumbent.ub();
    }

    bool
    abortRequested() const
    {
        if (private_)
            return localStop_ || localLimit_;
        return shared_.gapStop.load(std::memory_order_relaxed) ||
               shared_.limitHit.load(std::memory_order_relaxed) ||
               shared_.allDone.load(std::memory_order_relaxed);
    }

    /**
     * Per-node accounting: counts the node and checks the node and
     * wall-clock budgets. Returns true when the search must unwind.
     */
    bool
    nodeAdmission()
    {
        ++nodes_;
        if (trace::enabled() &&
            (nodes_ & (kNodeTraceSample - 1)) == 0)
            trace::instant("cp.nodes",
                           trace::Arg::intArg("nodes", nodes_));
        if (private_ && nodes_ >= limits_.maxNodes)
            localLimit_ = true;
        if ((nodes_ & (kBudgetBatch - 1)) == 0) {
            if (!private_ &&
                shared_.nodesApprox.fetch_add(
                    kBudgetBatch, std::memory_order_relaxed) +
                        kBudgetBatch >= limits_.maxNodes)
                shared_.stop(shared_.limitHit);
            if (shared_.outOfTime()) {
                if (private_)
                    localLimit_ = true;
                else
                    shared_.stop(shared_.limitHit);
            }
        }
        return abortRequested();
    }

    /**
     * A complete schedule: install it as the incumbent when it is
     * strictly better than the one this worker prunes against.
     */
    void
    offer(Time makespan)
    {
        if (private_) {
            if (makespan >= privUb_)
                return;
            privUb_ = makespan;
            privBest_.tasks = assign_;
        } else if (!shared_.incumbent.offer(makespan, assign_)) {
            return;
        }
        ++solutions_;
        if (trace::enabled())
            trace::instant("cp.incumbent",
                           trace::Arg::intArg("makespan", makespan),
                           trace::Arg::numArg(
                               "gap", gapOf(makespan,
                                            limits_.lowerBound)));
        if (!private_)
            sharedGapCheck();
        else if (withinGap(privUb_, limits_.lowerBound,
                           limits_.targetGap))
            localStop_ = true;
    }

    /**
     * Opportunistic targetGap stop against the aggregated global
     * lower bound: the optimum is at least
     * min(incumbent, min over remaining subtree bounds), and at
     * least the external bound.
     */
    void
    sharedGapCheck()
    {
        if (limits_.targetGap <= 0.0 ||
            !shared_.incumbent.found())
            return;
        Time ub = shared_.incumbent.ub();
        Time remaining = shared_.aggregator.min();
        if (remaining == kInfTime && ub > 0)
            return; // Everything explored; exhaustion handles it.
        Time lb = std::max(limits_.lowerBound,
                           std::min(ub, remaining));
        if (withinGap(ub, lb, limits_.targetGap))
            shared_.stop(shared_.gapStop);
    }

    /**
     * Spill policy: publish children as stealable subproblems above
     * the split depth, and anywhere while workers are starving.
     */
    bool
    shouldSpill() const
    {
        if (private_)
            return false;
        if (scheduled_ < shared_.splitDepth)
            return true;
        return shared_.idle.load(std::memory_order_relaxed) > 0 &&
               shared_.pending.load(std::memory_order_relaxed) <
                   shared_.lowWater;
    }

    /** Publish one child of the current node onto the own deque. */
    void
    publish(const Decision &d, Time bound)
    {
        Subproblem sub;
        sub.prefix.reserve(path_.size() + 1);
        sub.prefix = path_;
        sub.prefix.push_back(d);
        sub.bound = bound;
        shared_.aggregator.add(bound);
        shared_.pending.fetch_add(1, std::memory_order_relaxed);
        shared_.deques[id_].push(std::move(sub));
        ++published_;
        if (shared_.idle.load(std::memory_order_relaxed) > 0)
            shared_.wake();
    }

    /**
     * One node. `parent_starts` is the parent node's earliest-start
     * table and `placed` the task the parent just placed (nullptr and
     * -1 at the root of a walk, so a replayed prefix starts from a
     * fresh table; see start_table.hh).
     */
    void
    dfs(Time makespan, const Time *parent_starts, int placed)
    {
        if (nodeAdmission())
            return;
        if (scheduled_ == n_) {
            offer(makespan);
            return;
        }
        Time ub = currentUb();
        Time node_bound = engine_.fixpoint(
            PropagationContext{model_, shared_.cp, assign_, end_,
                               makespan, limits_.lowerBound, ub});
        if (node_bound >= ub)
            return;

        // The branch order, the start table and the per-task option
        // lists live in arena scratch released wholesale when the
        // node unwinds, so no node allocates in steady state.
        const size_t num_branch = eligible_.size();
        support::Arena::Scope scope(&nodeArena_);
        int *branch_tasks = table_.branchOrder(nodeArena_, eligible_);
        Time *starts = table_.build(nodeArena_, eligible_, parent_starts,
                                    placed, assign_, end_, ub);

        // A spilling node collects its children instead of recursing,
        // so spilled_ holds this node's children only.
        bool spill = shouldSpill();
        spilled_.clear();
        for (size_t bi = 0; bi < num_branch; ++bi) {
            int t = branch_tasks[bi];
            Option *options = nodeArena_.allocArray<Option>(
                model_.task(t).modes.size());
            size_t num_options =
                table_.options(t, starts, currentUb(), options);
            Time tail_after = table_.tailAfter(t);

            for (size_t oi = 0; oi < num_options; ++oi) {
                const Option &opt = options[oi];
                Decision d{t, opt.mode, opt.start};
                Time child_bound = std::max(
                    node_bound,
                    static_cast<Time>(opt.complete + tail_after));
                if (spill) {
                    spilled_.push_back({d, child_bound});
                    continue;
                }
                apply(d);
                dfs(std::max(makespan, opt.complete), starts, t);
                undo();
                if (abortRequested())
                    return;
                // Re-check the prune: the incumbent may have
                // improved (here or on another worker).
                if (opt.complete + tail_after >= currentUb())
                    break; // Options are completion-sorted.
            }
        }
        // The owner pops from the back of its deque, so pushing the
        // children last-first hands them back in branch order.
        if (spill)
            for (size_t i = spilled_.size(); i > 0; --i)
                publish(spilled_[i - 1].first, spilled_[i - 1].second);
        ++backtracks_;
    }

    /**
     * Opportunistic mode: replay a subproblem's prefix, search it,
     * unwind, and retire it from the shared accounting.
     */
    void
    process(const Subproblem &sub)
    {
        // `sub.bound >= currentUb()` means the subtree is already
        // pruned by a better incumbent; otherwise search it.
        if (sub.bound < currentUb()) {
            Time makespan = 0;
            for (const Decision &d : sub.prefix)
                makespan = std::max(makespan, apply(d));
            dfs(makespan, nullptr, -1);
            for (size_t i = 0; i < sub.prefix.size(); ++i)
                undo();
        }
        shared_.aggregator.remove(sub.bound);
        // Only now does the subproblem leave the in-flight set: any
        // children it spilled are already counted, so `pending` can
        // never read 0 while work is unexplored.
        shared_.pending.fetch_sub(1, std::memory_order_acq_rel);
        sharedGapCheck();
    }

    /**
     * Take the top half of some victim's deque: the extra
     * subproblems queue locally, the first (shallowest, so largest)
     * is returned for immediate processing.
     */
    bool
    trySteal(Subproblem *out)
    {
        for (int i = 1; i < shared_.threads; ++i) {
            int victim = (id_ + i) % shared_.threads;
            std::vector<Subproblem> stolen;
            if (shared_.deques[victim].steal(&stolen) == 0)
                continue;
            ++steals_;
            *out = std::move(stolen.front());
            for (size_t k = stolen.size(); k > 1; --k)
                shared_.deques[id_].push(
                    std::move(stolen[k - 1]));
            return true;
        }
        return false;
    }

    /**
     * Nothing to do right now: advertise idleness (spill heuristic)
     * and wait until work appears or the tree is exhausted.
     * `pending` counts claimed subproblems until their process()
     * returns, so a single load of 0 proves completion — there is no
     * idle-count handshake for a claim to race against. Waiting
     * spins briefly, then parks on the shared condition variable
     * with an exponentially growing timed wait (work can be
     * in-flight on other workers with nothing stealable for long
     * stretches, and burning a core on yield() would hold a
     * ThreadBudget slot the sweep pool could use).
     */
    bool
    waitForWork(Subproblem *out)
    {
        shared_.idle.fetch_add(1, std::memory_order_acq_rel);
        bool got = false;
        int spins = 0;
        int64_t sleep_us = kIdleSleepMinUs;
        while (!abortRequested()) {
            if (shared_.pending.load(std::memory_order_acquire) ==
                0) {
                shared_.allDone.store(true,
                                      std::memory_order_release);
                shared_.wake();
                break;
            }
            // Poll the wall-clock budgets while starving: a parked
            // worker otherwise only learns of the deadline from a
            // busy worker's nodeAdmission, and when every busy
            // worker is deep inside a slow propagation fixpoint the
            // cut can arrive arbitrarily late.
            if (shared_.outOfTime()) {
                shared_.stop(shared_.limitHit);
                break;
            }
            if (shared_.deques[id_].pop(out) || trySteal(out)) {
                got = true;
                break;
            }
            if (++spins <= kIdleSpinIters) {
                std::this_thread::yield();
                continue;
            }
            std::unique_lock<std::mutex> lock(shared_.waitMutex);
            if (!abortRequested() &&
                shared_.pending.load(std::memory_order_acquire) > 0)
                shared_.waitCv.wait_for(
                    lock, std::chrono::microseconds(sleep_us));
            sleep_us = std::min(sleep_us * 2, kIdleSleepMaxUs);
        }
        shared_.idle.fetch_sub(1, std::memory_order_acq_rel);
        return got;
    }

    using Option = StartTable::Option;

    /** Heap bytes currently committed to this worker's scratch. */
    int64_t
    scratchHeapBytes() const
    {
        return static_cast<int64_t>(nodeArena_.heapBytes() +
                                    engine_.stateArena().heapBytes() +
                                    engine_.profile().heapBytes());
    }

    Shared &shared_;
    const Model &model_;
    const SearchLimits &limits_;
    const int id_;
    /** Prune against privUb_ rather than the shared incumbent. */
    const bool private_;
    const int n_;

    PropagationEngine engine_;
    StartTable table_;
    /**
     * Per-node scratch: every dfs() call opens a Scope and the whole
     * node's scratch releases as one pointer rewind, including on the
     * early-exit paths.
     */
    support::Arena nodeArena_;
    int64_t scratchBaseline_ = 0;
    std::vector<Assignment> assign_;
    std::vector<Time> end_;
    std::vector<int> remainingPreds_;
    std::vector<int> eligible_;
    /** Position of each task inside eligible_, or -1 when absent. */
    std::vector<int> eligiblePos_;
    std::vector<Decision> path_;
    int scheduled_ = 0;
    /** Children of a spilling node, published once it is expanded. */
    std::vector<std::pair<Decision, Time>> spilled_;

    // Private incumbent (serial mode).
    Time privUb_ = 0;
    ScheduleVec privBest_;
    bool localStop_ = false;
    bool localLimit_ = false;

    int64_t nodes_ = 0;
    int64_t backtracks_ = 0;
    int64_t solutions_ = 0;
    int64_t steals_ = 0;
    int64_t published_ = 0;
};

using Workers = std::vector<std::unique_ptr<Worker>>;

/** Per-search metrics flush, once per search rather than per node. */
void
flushMetrics(const SearchResult &result, int64_t arena_heap)
{
    metrics::counter("cp.search.nodes").add(result.nodes);
    metrics::counter("cp.search.backtracks").add(result.backtracks);
    metrics::counter("cp.search.solutions").add(result.solutions);
    metrics::counter("cp.search.start_sweeps").add(result.startSweeps);
    metrics::counter("cp.search.start_reused").add(result.startsReused);
    if (result.threadsUsed > 1) {
        metrics::counter("cp.par.searches").add(1);
        metrics::counter("cp.par.steals").add(result.steals);
        metrics::counter("cp.par.subproblems").add(result.subproblems);
    }
    int64_t invocations = 0;
    int64_t prunings = 0;
    for (const PropagatorStats &stats : result.propagators) {
        invocations += stats.invocations;
        prunings += stats.prunings;
    }
    metrics::counter("cp.propagations").add(invocations);
    metrics::counter("cp.prunings").add(prunings);
    metrics::gauge("hilp.arena.bytes")
        .set(static_cast<double>(arena_heap));
    metrics::gauge("hilp.arena.highwater")
        .set(static_cast<double>(result.arenaHighWater));
    metrics::counter("hilp.arena.rewinds").add(result.arenaRewinds);
}

/** Opportunistic mode: the crew shares one incumbent and the deques. */
void
runOpportunistic(Shared &shared, Workers &workers,
                 SearchResult &result)
{
    int threads = shared.threads;
    Subproblem root;
    root.bound = std::max<Time>(0, shared.limits.lowerBound);
    shared.aggregator.add(root.bound);
    shared.pending.store(1, std::memory_order_relaxed);
    shared.deques[0].push(std::move(root));

    for (int w = 1; w < threads; ++w)
        workers.push_back(std::make_unique<Worker>(shared, w));
    std::vector<std::thread> crew;
    crew.reserve(static_cast<size_t>(threads) - 1);
    for (int w = 1; w < threads; ++w) {
        Worker *worker = workers[static_cast<size_t>(w)].get();
        crew.emplace_back([worker, w] {
            trace::setThreadName(format("cp-worker-%d", w));
            worker->runOpportunistic();
        });
    }
    workers[0]->runOpportunistic();
    for (std::thread &thread : crew)
        thread.join();

    if (shared.incumbent.improvements() > 0) {
        result.foundSolution = true;
        result.bestMakespan = shared.incumbent.ub();
        result.best = shared.incumbent.best();
    }
    result.exhausted =
        !shared.gapStop.load(std::memory_order_acquire) &&
        !shared.limitHit.load(std::memory_order_acquire);
}

} // anonymous namespace

SearchResult
branchAndBound(const Model &model, const ScheduleVec *warm_start,
               const SearchLimits &limits)
{
    const int threads = std::max(1, limits.threads);
    trace::Span span("cp.search",
                     trace::Arg::intArg("tasks", model.numTasks()));

    Time initial_ub = model.horizon() + 1;
    if (warm_start)
        initial_ub = warm_start->makespan(model);
    Shared shared(model, limits, initial_ub, warm_start, threads);

    SearchResult result;
    result.threadsUsed = threads;
    if (warm_start) {
        result.foundSolution = true;
        result.best = *warm_start;
        result.bestMakespan = initial_ub;
    }

    Workers workers;
    workers.push_back(std::make_unique<Worker>(shared, 0));
    if (warm_start &&
        withinGap(initial_ub, limits.lowerBound, limits.targetGap)) {
        // The warm start is already inside the target gap: no tree
        // walk at all.
    } else if (threads > 1 && shared.outOfTime()) {
        // A parallel search cut before it starts. Without this check
        // a tiny warm-started tree can exhaust within the first
        // budget batch, before any worker polls the clock, and a run
        // the caller cut would claim `exhausted`. (The solver caps a
        // serial search past its deadline at one node itself.)
    } else if (threads > 1) {
        runOpportunistic(shared, workers, result);
    } else {
        workers[0]->runSerial(result);
    }

    int64_t arena_heap = 0;
    for (const auto &worker : workers)
        worker->mergeInto(result, &arena_heap);
    span.arg(trace::Arg::intArg("nodes", result.nodes));
    span.arg(trace::Arg::intArg("backtracks", result.backtracks));
    if (threads > 1) {
        span.arg(trace::Arg::intArg("threads", threads));
        span.arg(trace::Arg::intArg("steals", result.steals));
    }
    flushMetrics(result, arena_heap);
    return result;
}

} // namespace cp
} // namespace hilp
