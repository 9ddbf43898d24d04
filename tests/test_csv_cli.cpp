#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hpp"
#include "common/csv.hpp"

namespace plrupart {
namespace {

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b"});
  w.row({"1", "2"});
  w.row_of(3.5, "x");
  EXPECT_EQ(os.str(), "a,b\n1,2\n3.5,x\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os, {"v"});
  w.row({"has,comma"});
  w.row({"has\"quote"});
  EXPECT_EQ(os.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), InvariantError);
}

namespace {
Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}
}  // namespace

TEST(Cli, BooleanFlags) {
  const auto cli = make_cli({"--quick", "--n", "5"});
  EXPECT_TRUE(cli.has("--quick"));
  EXPECT_TRUE(cli.has("--n"));
  EXPECT_FALSE(cli.has("--missing"));
}

TEST(Cli, SpaceAndEqualsForms) {
  const auto cli = make_cli({"--a", "10", "--b=20"});
  EXPECT_EQ(cli.get_int("--a", 0), 10);
  EXPECT_EQ(cli.get_int("--b", 0), 20);
  EXPECT_EQ(cli.get_int("--c", 7), 7);
}

TEST(Cli, StringsAndDoubles) {
  const auto cli = make_cli({"--name=foo", "--scale", "0.75"});
  EXPECT_EQ(cli.get_string("--name", "bar"), "foo");
  EXPECT_DOUBLE_EQ(cli.get_double("--scale", 1.0), 0.75);
  EXPECT_EQ(cli.get_string("--other", "dflt"), "dflt");
}

TEST(Cli, BadIntegerThrows) {
  const auto cli = make_cli({"--n", "abc"});
  EXPECT_THROW((void)cli.get_int("--n", 0), InvariantError);
}

TEST(Cli, BadDoubleThrows) {
  for (const char* text : {"5x", "abc", "", "1e400"}) {
    const auto cli = make_cli({"--scale", text});
    try {
      (void)cli.get_double("--scale", 0.0);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("bad number for flag --scale: '" +
                                           std::string(text) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace plrupart
