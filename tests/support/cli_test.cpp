#include "support/cli.hpp"

#include <gtest/gtest.h>

namespace hipacc::support {
namespace {

Status ParseArgs(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.Parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParserTest, TypedFlagsFillTargets) {
  bool flag = false;
  int number = 0;
  std::string text;
  CliParser cli("prog");
  cli.Bool("flag", &flag, "a switch");
  cli.Int("number", &number, "N", "an int");
  cli.String("text", &text, "TEXT", "a string");
  ASSERT_TRUE(
      ParseArgs(cli, {"--flag", "--number=42", "--text=hello"}).ok());
  EXPECT_TRUE(flag);
  EXPECT_EQ(number, 42);
  EXPECT_EQ(text, "hello");
}

TEST(CliParserTest, UnknownFlagNamesTheArgument) {
  CliParser cli("prog");
  const Status status = ParseArgs(cli, {"--bogus"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--bogus"), std::string::npos);
}

TEST(CliParserTest, MalformedIntIsAnError) {
  int number = 0;
  CliParser cli("prog");
  cli.Int("number", &number, "N", "an int");
  EXPECT_FALSE(ParseArgs(cli, {"--number=abc"}).ok());
  EXPECT_FALSE(ParseArgs(cli, {"--number"}).ok());  // value required
  // Values outside int are rejected, not wrapped: 4294967360 would
  // otherwise land on 64 and 4294967298 on 2.
  for (const char* arg :
       {"--number=4294967360", "--number=4294967298", "--number=2147483648",
        "--number=-2147483649", "--number=99999999999999999999"}) {
    number = 7;
    const Status out_of_range = ParseArgs(cli, {arg});
    ASSERT_FALSE(out_of_range.ok()) << arg;
    EXPECT_NE(out_of_range.message().find("--number"), std::string::npos);
    EXPECT_EQ(out_of_range.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(number, 7) << arg;
  }
  EXPECT_TRUE(ParseArgs(cli, {"--number=2147483647"}).ok());
  EXPECT_EQ(number, 2147483647);
  EXPECT_TRUE(ParseArgs(cli, {"--number=-2147483648"}).ok());
  EXPECT_EQ(number, -2147483647 - 1);
}

TEST(CliParserTest, ValueSetterStatusSurfaces) {
  CliParser cli("prog");
  cli.Value("mode", "MODE", "a vocabulary",
            [](const std::string& value) -> Status {
              if (value == "good") return Status::Ok();
              return Status::Invalid("unknown mode '" + value + "'");
            });
  EXPECT_TRUE(ParseArgs(cli, {"--mode=good"}).ok());
  const Status bad = ParseArgs(cli, {"--mode=bad"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("unknown mode 'bad'"), std::string::npos);
}

TEST(CliParserTest, PositionalsFillInOrderAndRequireWhenMarked) {
  std::string first, second;
  CliParser cli("prog");
  cli.Positional("first", &first, "first arg");
  cli.Positional("second", &second, "second arg", /*required=*/false);
  ASSERT_TRUE(ParseArgs(cli, {"a", "b"}).ok());
  EXPECT_EQ(first, "a");
  EXPECT_EQ(second, "b");

  std::string only;
  CliParser strict("prog");
  strict.Positional("input", &only, "required input");
  EXPECT_FALSE(ParseArgs(strict, {}).ok());      // missing required
  EXPECT_FALSE(ParseArgs(strict, {"a", "b"}).ok());  // surplus
}

TEST(CliParserTest, HelpShortCircuitsValidation) {
  std::string input;
  CliParser cli("prog", "summary line");
  cli.Positional("input", &input, "required input");
  ASSERT_TRUE(ParseArgs(cli, {"--help"}).ok());  // missing positional is fine
  EXPECT_TRUE(cli.help_requested());
  const std::string help = cli.Help();
  EXPECT_NE(help.find("summary line"), std::string::npos);
  EXPECT_NE(help.find("input"), std::string::npos);
}

TEST(CliParserTest, HelpListsRegisteredFlags) {
  bool flag = false;
  CliParser cli("prog");
  cli.Bool("enable-thing", &flag, "turns the thing on");
  const std::string help = cli.Help();
  EXPECT_NE(help.find("--enable-thing"), std::string::npos);
  EXPECT_NE(help.find("turns the thing on"), std::string::npos);
}

}  // namespace
}  // namespace hipacc::support
