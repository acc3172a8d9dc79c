#include "util/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace nvmsec {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

TEST(CliTest, DefaultsApplyWhenUnset) {
  CliParser cli("test");
  cli.add_flag("count", "a count", "5");
  auto args = argv_of({});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("count"), 5);
}

TEST(CliTest, EqualsAndSpaceForms) {
  CliParser cli("test");
  cli.add_flag("a", "", "0");
  cli.add_flag("b", "", "0");
  auto args = argv_of({"--a=3", "--b", "4"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("a"), 3);
  EXPECT_EQ(cli.get_int("b"), 4);
}

TEST(CliTest, SwitchesDefaultFalseAndToggle) {
  CliParser cli("test");
  cli.add_switch("verbose", "");
  {
    auto args = argv_of({});
    CliParser c2 = cli;
    ASSERT_TRUE(c2.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_FALSE(c2.get_bool("verbose"));
  }
  {
    auto args = argv_of({"--verbose"});
    ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_TRUE(cli.get_bool("verbose"));
  }
}

TEST(CliTest, SwitchWithExplicitValue) {
  CliParser cli("test");
  cli.add_switch("x", "");
  auto args = argv_of({"--x=false"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_FALSE(cli.get_bool("x"));
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("test");
  auto args = argv_of({"--nope=1"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               std::invalid_argument);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli("test");
  cli.add_flag("a", "", "0");
  auto args = argv_of({"--a"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               std::invalid_argument);
}

TEST(CliTest, MalformedNumbersThrow) {
  CliParser cli("test");
  cli.add_flag("n", "", "1x");
  cli.add_flag("d", "", "2.5y");
  auto args = argv_of({});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_THROW(cli.get_int("n"), std::invalid_argument);
  EXPECT_THROW(cli.get_double("d"), std::invalid_argument);
}

TEST(CliTest, DoubleParsing) {
  CliParser cli("test");
  cli.add_flag("f", "", "0.5");
  auto args = argv_of({"--f=2.25"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("f"), 2.25);
}

TEST(CliTest, StrayPositionalArgumentThrows) {
  // A bare word anywhere, even after a complete --flag value pair, is
  // rejected with a message that names it.
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases{
      {argv_of({"--a", "1", "oops"}), "oops"},
      {argv_of({"oops", "--a=1"}), "oops"},
      {argv_of({"-a"}), "-a"}};
  for (const auto& [args, stray] : cases) {
    CliParser cli("test");
    cli.add_flag("a", "", "0");
    try {
      cli.parse(static_cast<int>(args.size()), args.data());
      ADD_FAILURE() << "accepted stray argument " << stray;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + stray + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliTest, HelpReturnsFalse) {
  CliParser cli("test");
  auto args = argv_of({"--help"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, UsageMentionsFlagsAndHelp) {
  CliParser cli("my description");
  cli.add_flag("alpha", "the alpha flag", "1");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("my description"), std::string::npos);
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

TEST(CliTest, UnregisteredGetterThrows) {
  CliParser cli("test");
  EXPECT_THROW(cli.get_string("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace nvmsec
