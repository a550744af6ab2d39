/**
 * @file
 * The engine-options memo key and its wire form, table-driven: every
 * option engineOptionsDigest hashes must move the digest and survive
 * a protocol round trip, the ignored solver fields must do neither,
 * and a request written for an older server (carrying option keys
 * that no longer exist) must still parse.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "hilp/engine.hh"
#include "service/protocol.hh"
#include "support/json.hh"

namespace hilp {
namespace service {
namespace {

struct OptionCase
{
    const char *name;
    std::function<void(EngineOptions &)> set;
};

/** Every option the digest covers, each set off its default. */
const OptionCase kHashed[] = {
    {"initialStepS", [](EngineOptions &o) { o.initialStepS = 2.5; }},
    {"horizonSteps", [](EngineOptions &o) { o.horizonSteps = 321; }},
    {"refineThreshold",
     [](EngineOptions &o) { o.refineThreshold = 17; }},
    {"refineFactor", [](EngineOptions &o) { o.refineFactor = 3.5; }},
    {"maxRefinements", [](EngineOptions &o) { o.maxRefinements = 2; }},
    {"maxCoarsenings", [](EngineOptions &o) { o.maxCoarsenings = 3; }},
    {"escalations", [](EngineOptions &o) { o.escalations = 2; }},
    {"escalationFactor",
     [](EngineOptions &o) { o.escalationFactor = 2.5; }},
    {"pointTimeoutS", [](EngineOptions &o) { o.pointTimeoutS = 7.5; }},
    {"fallbackLnsIterations",
     [](EngineOptions &o) { o.fallbackLnsIterations = 9; }},
    {"solver.maxNodes", [](EngineOptions &o) { o.solver.maxNodes = 77; }},
    {"solver.maxSeconds",
     [](EngineOptions &o) { o.solver.maxSeconds = 1.5; }},
    {"solver.targetGap",
     [](EngineOptions &o) { o.solver.targetGap = 0.25; }},
    {"solver.useLpBound",
     [](EngineOptions &o) { o.solver.useLpBound = false; }},
    {"solver.greedyRestarts",
     [](EngineOptions &o) { o.solver.greedyRestarts = 3; }},
    {"solver.lnsIterations",
     [](EngineOptions &o) { o.solver.lnsIterations = 11; }},
    {"solver.seed", [](EngineOptions &o) { o.solver.seed = 42; }},
    {"solver.seedSalt", [](EngineOptions &o) { o.solver.seedSalt = 5; }},
    {"solver.threads", [](EngineOptions &o) { o.solver.threads = 4; }},
    {"solver.splitDepth",
     [](EngineOptions &o) { o.solver.splitDepth = 6; }},
};

/** The solver fields the search ignores. */
const OptionCase kIgnored[] = {
    {"solver.energeticReasoning",
     [](EngineOptions &o) { o.solver.energeticReasoning = true; }},
    {"solver.useNogoods",
     [](EngineOptions &o) { o.solver.useNogoods = true; }},
    {"solver.nogoodCapacity",
     [](EngineOptions &o) { o.solver.nogoodCapacity = 1 << 10; }},
    {"solver.packedLayout",
     [](EngineOptions &o) { o.solver.packedLayout = false; }},
};

/** Serialize, print, re-parse and decode, as a request does. */
EngineOptions
roundTrip(const EngineOptions &options)
{
    std::string text = protocol::engineOptionsJson(options).dump();
    Json json;
    std::string error;
    EXPECT_TRUE(Json::parse(text, &json, &error)) << error;
    EngineOptions parsed;
    EXPECT_TRUE(protocol::parseEngineOptions(json, &parsed, &error))
        << error;
    return parsed;
}

TEST(EngineOptionsDigest, EveryHashedOptionMovesTheKeyAndRoundTrips)
{
    const uint64_t base = engineOptionsDigest(EngineOptions{});
    for (const OptionCase &option : kHashed) {
        SCOPED_TRACE(option.name);
        EngineOptions changed;
        option.set(changed);
        uint64_t digest = engineOptionsDigest(changed);
        EXPECT_NE(digest, base);
        EXPECT_EQ(engineOptionsDigest(roundTrip(changed)), digest);
    }
}

TEST(EngineOptionsDigest, IgnoredSolverFieldsAreNotHashedNorSent)
{
    const EngineOptions base;
    const std::string wire = protocol::engineOptionsJson(base).dump();
    for (const OptionCase &option : kIgnored) {
        SCOPED_TRACE(option.name);
        EngineOptions changed;
        option.set(changed);
        EXPECT_EQ(engineOptionsDigest(changed), engineOptionsDigest(base));
        EXPECT_EQ(protocol::engineOptionsJson(changed).dump(), wire);
    }
}

TEST(EngineOptionsDigest, RetiredRequestKeysStillParse)
{
    Json json;
    ASSERT_TRUE(Json::parse(
        R"({"solver": {"max_nodes": 77, "use_nogoods": true,
                       "nogood_capacity": 1024, "lns": true,
                       "lns_polish_nodes": 10,
                       "deterministic_search": true,
                       "energetic_reasoning": true}})",
        &json));
    EngineOptions parsed;
    std::string error;
    ASSERT_TRUE(protocol::parseEngineOptions(json, &parsed, &error))
        << error;
    EngineOptions expected;
    expected.solver.maxNodes = 77;
    EXPECT_EQ(engineOptionsDigest(parsed), engineOptionsDigest(expected));
    EXPECT_FALSE(parsed.solver.useNogoods);
    EXPECT_FALSE(parsed.solver.energeticReasoning);
}

} // anonymous namespace
} // namespace service
} // namespace hilp
