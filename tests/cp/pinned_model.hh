/**
 * @file
 * The random models behind the pinned search trees of test_search.cc,
 * shared with the tests that replay them under other drivers.
 */

#ifndef HILP_TESTS_CP_PINNED_MODEL_HH
#define HILP_TESTS_CP_PINNED_MODEL_HH

#include <cstdint>

#include "cp/model.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {

/**
 * Random multi-mode model with groups, a cumulative resource, and a
 * sparse precedence DAG - enough structure to force nontrivial
 * branching, mode ties, and backtracking.
 */
inline Model
pinnedSearchModel(uint64_t seed)
{
    Rng rng(seed * 2654435761u + 11);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 2.5), "power");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    int n = static_cast<int>(rng.uniformInt(5, 8));
    for (int i = 0; i < n; ++i) {
        Task t;
        t.name = format("t%d", i);
        int nm = static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < nm; ++k) {
            double which = rng.uniformDouble();
            int g = which < 0.4 ? g1 : which < 0.8 ? g2 : kNoGroup;
            t.modes.push_back(
                {g, static_cast<Time>(rng.uniformInt(1, 4)),
                 {rng.uniformDouble(0.0, 1.2)}});
        }
        m.addTask(t);
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.chance(0.2))
                m.addPrecedence(i, j);
    m.setHorizon(6 * n);
    return m;
}

} // namespace cp
} // namespace hilp

#endif // HILP_TESTS_CP_PINNED_MODEL_HH
