#include "start_table.hh"

#include <algorithm>

namespace hilp {
namespace cp {

StartTable::StartTable(const Model &model, const CriticalPathData &cp,
                       const Profile &profile)
    : model_(model),
      cp_(cp),
      profile_(profile),
      fresh_(static_cast<size_t>(model.numTasks()), 0)
{}

int *
StartTable::branchOrder(support::Arena &arena,
                        const std::vector<int> &eligible) const
{
    int *tasks = arena.allocArray<int>(eligible.size());
    std::copy(eligible.begin(), eligible.end(), tasks);
    std::sort(tasks, tasks + eligible.size(), [this](int a, int b) {
        if (cp_.tail[a] != cp_.tail[b])
            return cp_.tail[a] > cp_.tail[b];
        return a < b;
    });
    return tasks;
}

Time
StartTable::sweep(const Mode &mode, Time from, Time tail, Time ub)
{
    // The start can only be >= from: skip the sweep when even `from`
    // cannot beat the incumbent.
    if (from + mode.duration + tail >= ub) {
        ++reused_;
        return kPruned;
    }
    ++sweeps_;
    Time start = profile_.earliestStart(mode, from);
    if (start >= 0 && start + mode.duration + tail >= ub)
        return kPruned;
    return start;
}

void
StartTable::markSuccessors(int t, uint8_t value)
{
    for (int succ : model_.successors(t))
        fresh_[succ] = value;
    for (const Model::LagEdge &edge : model_.lagSuccessors(t))
        fresh_[edge.other] = value;
}

Time *
StartTable::build(support::Arena &arena,
                  const std::vector<int> &eligible, const Time *parent,
                  int placed, const std::vector<Assignment> &assign,
                  const std::vector<Time> &end, Time ub)
{
    Time *starts =
        arena.allocArray<Time>(static_cast<size_t>(model_.numModes()));
    const Mode *pm = nullptr;
    Time s = 0;
    Time e = 0;
    if (parent) {
        pm = &model_.task(placed).modes[static_cast<size_t>(
            assign[placed].mode)];
        s = assign[placed].start;
        e = s + pm->duration;
        markSuccessors(placed, 1);
    }

    for (int t : eligible) {
        const Task &task = model_.task(t);
        const Time tail = tailAfter(t);
        if (!parent || fresh_[t]) {
            Time est = 0;
            for (int p : model_.predecessors(t))
                est = std::max(est, end[p]);
            for (const Model::LagEdge &edge : model_.lagPredecessors(t))
                est = std::max(est, assign[edge.other].start + edge.lag);
            for (const Mode &mode : task.modes)
                starts[mode.id] = sweep(mode, est, tail, ub);
            continue;
        }
        for (const Mode &mode : task.modes) {
            const Time prev = parent[mode.id];
            Time next = prev;
            // Only a window at prev that collides with [s, e) can move.
            if (prev >= 0 && mode.duration > 0 && s < e && prev < e &&
                prev + mode.duration > s) {
                if (mode.group != kNoGroup && mode.group == pm->group)
                    next = sweep(mode, e, tail, ub);
                else if (!profile_.stillFits(mode, prev, *pm, s))
                    next = sweep(mode, prev, tail, ub);
                else
                    ++reused_;
            } else {
                ++reused_;
            }
            starts[mode.id] = next;
        }
    }

    if (parent)
        markSuccessors(placed, 0);
    return starts;
}

size_t
StartTable::options(int t, Time *starts, Time ub, Option *out) const
{
    const Task &task = model_.task(t);
    const Time tail = tailAfter(t);
    size_t count = 0;
    for (size_t m = 0; m < task.modes.size(); ++m) {
        const Mode &mode = task.modes[m];
        const Time start = starts[mode.id];
        if (start < 0)
            continue;
        const Time complete = start + mode.duration;
        if (complete + tail >= ub) {
            starts[mode.id] = kPruned; // Cannot beat the incumbent.
            continue;
        }
        out[count++] = {static_cast<int>(m), start, complete};
    }
    // Promising branches first.
    std::sort(out, out + count, [](const Option &a, const Option &b) {
        return a.complete < b.complete;
    });
    return count;
}

} // namespace cp
} // namespace hilp
