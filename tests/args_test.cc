/**
 * @file
 * bench::Args, the flag parser every bench and milana-sim share: typed
 * getters, strict numbers, unknown-argument detection, and finish()'s
 * exit codes (--help = 0 before any work, any error = 2).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"

namespace {

/** Args over a literal argv (argv[0] = "prog"). */
bench::Args
parse(std::vector<std::string> words)
{
    static std::vector<std::string> storage;
    storage = std::move(words);
    storage.insert(storage.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &w : storage)
        argv.push_back(w.data());
    return bench::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, TypedGettersReadValuesAndDefaults)
{
    bench::Args args = parse({"--keys=2000", "--alpha=0.8", "--full",
                              "--json", "out.json", "--metrics-interval=250us"});
    EXPECT_EQ(args.getInt("keys", 1), 2000);
    EXPECT_EQ(args.getInt("seed", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("alpha", 0.6), 0.8);
    EXPECT_TRUE(args.has("full"));
    EXPECT_FALSE(args.has("monitor"));
    EXPECT_EQ(args.getString("json", ""), "out.json");
    EXPECT_EQ(args.getDuration("metrics-interval", common::kSecond),
              250 * common::kMicrosecond);
    EXPECT_EQ(args.getDuration("other", 3 * common::kMillisecond),
              3 * common::kMillisecond);
    EXPECT_TRUE(args.errors().empty());
}

TEST(Args, NumbersMustParseCompletely)
{
    bench::Args args = parse({"--keys=2M", "--alpha=0.8x", "--seed=",
                              "--metrics-interval=5h"});
    EXPECT_EQ(args.getInt("keys", 20), 20);
    EXPECT_DOUBLE_EQ(args.getDouble("alpha", 0.6), 0.6);
    EXPECT_EQ(args.getInt("seed", 1), 1);
    EXPECT_EQ(args.getDuration("metrics-interval", 1), 1);
    const std::vector<std::string> errors = args.errors();
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_NE(errors[0].find("--keys=2M"), std::string::npos);
    EXPECT_NE(errors[1].find("--alpha=0.8x"), std::string::npos);
}

TEST(Args, UnreadArgumentsAreErrors)
{
    bench::Args args = parse({"--keys=10", "--sim-thread=8", "stray"});
    args.getInt("keys", 1);
    args.getInt("seed", 1); // declared but absent: fine
    const std::vector<std::string> errors = args.errors();
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_NE(errors[0].find("--sim-thread=8"), std::string::npos);
    EXPECT_NE(errors[1].find("stray"), std::string::npos);
}

TEST(Args, FinishExitsTwoNamingTheFlag)
{
    EXPECT_EXIT(
        {
            bench::Args args = parse({"--seconds=1", "--sim-thread=8"});
            args.getInt("seconds", 4);
            args.finish();
        },
        ::testing::ExitedWithCode(2), "unknown argument '--sim-thread=8'");
    EXPECT_EXIT(
        {
            bench::Args args = parse({"--keys=2M"});
            args.getInt("keys", 20);
            args.finish();
        },
        ::testing::ExitedWithCode(2), "--keys=2M is not an integer");
}

TEST(Args, HelpListsDeclaredFlagsAndExitsZero)
{
    bench::Args args = parse({"--help"});
    args.getInt("keys", 20000);
    args.getDouble("alpha", 0.6);
    args.has("full");
    args.getString("json", "");
    const std::string text = args.usage();
    EXPECT_NE(text.find("usage: prog"), std::string::npos);
    EXPECT_NE(text.find("--keys=N"), std::string::npos);
    EXPECT_NE(text.find("(default 20000)"), std::string::npos);
    EXPECT_NE(text.find("(default 0.6)"), std::string::npos);
    EXPECT_NE(text.find("--full\n"), std::string::npos);
    EXPECT_NE(text.find("--json=STR\n"), std::string::npos);
    EXPECT_TRUE(args.errors().empty());

    // --help wins over other errors and stops before any work runs.
    EXPECT_EXIT(
        {
            bench::Args a = parse({"--help", "--bogus"});
            a.getInt("keys", 20000);
            a.finish();
            std::exit(3);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
