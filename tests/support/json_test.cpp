// JSON document model: writer/parser round trips, number formatting (the
// integral flag keeps counters free of a spurious ".0"), insertion-ordered
// objects, escape handling, and the strict-parser error cases.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

namespace hipacc::support {
namespace {

Json SampleDocument() {
  Json doc = Json::Object();
  doc["kernel"] = "bilateral";
  doc["ms"] = 157.58;
  doc["launches"] = 128;
  doc["sampled"] = true;
  doc["note"] = Json();  // null
  Json point = Json::Object();
  point["block_x"] = 32;
  point["block_y"] = 4;
  Json points = Json::Array();
  points.push_back(std::move(point));
  points.push_back(Json::Object());
  doc["points"] = std::move(points);
  return doc;
}

TEST(JsonTest, TypePredicates) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json("x").is_string());
  EXPECT_TRUE(Json::Array().is_array());
  EXPECT_TRUE(Json::Object().is_object());
}

TEST(JsonTest, CompactDumpIsDeterministicAndInsertionOrdered) {
  EXPECT_EQ(SampleDocument().Dump(),
            "{\"kernel\":\"bilateral\",\"ms\":157.58,\"launches\":128,"
            "\"sampled\":true,\"note\":null,"
            "\"points\":[{\"block_x\":32,\"block_y\":4},{}]}");
}

TEST(JsonTest, IntegralNumbersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json(0).Dump(), "0");
  EXPECT_EQ(Json(-42).Dump(), "-42");
  EXPECT_EQ(Json(std::uint64_t{1} << 53).Dump(), "9007199254740992");
  // Plain doubles keep a shortest representation that round-trips.
  EXPECT_EQ(Json(0.5).Dump(), "0.5");
  EXPECT_EQ(Json(157.58).Dump(), "157.58");
  EXPECT_EQ(Json(1.0 / 3.0).Dump(), "0.3333333333333333");
  // Whole doubles print as integers, not in exponent form, up to 1e21.
  EXPECT_EQ(Json(10.0).Dump(), "10");
  EXPECT_EQ(Json(100.0).Dump(), "100");
  EXPECT_EQ(Json(1e21).Dump(), "1e+21");
}

TEST(JsonTest, NonFiniteNumbersSerialiseAsNull) {
  // JSON has no Infinity/NaN literal; emitting null keeps output parseable.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(Json::Quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Json::Quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Json::Quote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonTest, IndentedDump) {
  Json doc = Json::Object();
  doc["a"] = 1;
  doc["b"] = Json::Array();
  doc["b"].push_back(2);
  EXPECT_EQ(doc.Dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonTest, RoundTripThroughDumpAndParse) {
  const Json doc = SampleDocument();
  for (const int indent : {-1, 0, 2, 4}) {
    auto parsed = Json::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value(), doc) << "indent=" << indent;
    // The integral flag survives: re-dumping matches byte for byte.
    EXPECT_EQ(parsed.value().Dump(indent), doc.Dump(indent));
  }
}

TEST(JsonTest, ParseAcceptsWhitespaceAndNesting) {
  auto parsed = Json::Parse("  { \"a\" : [ 1 , { \"b\" : null } ] }  ");
  ASSERT_TRUE(parsed.ok());
  const Json* a = parsed.value().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ((*a)[0].int_value(), 1);
  EXPECT_TRUE((*a)[1].Find("b")->is_null());
}

TEST(JsonTest, ParseDecodesUnicodeEscapes) {
  auto parsed = Json::Parse("\"\\u00e9\\u2192\"");  // é →
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value(), "\xc3\xa9\xe2\x86\x92");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "\"unterminated",
        "01", "1.", "+1", "nul", "truthy", "[1] trailing", "{\"a\":1,}",
        "'single'", "\"bad \\x escape\""}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, ParseRejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, FindAndIndexing) {
  Json doc = SampleDocument();
  EXPECT_EQ(doc.Find("kernel")->string_value(), "bilateral");
  EXPECT_EQ(doc.Find("missing"), nullptr);
  EXPECT_EQ(doc.Find("points")->elements()[0].Find("block_x")->int_value(), 32);
  // operator[] on an existing key returns the same member, not a duplicate.
  doc["kernel"] = "gaussian";
  EXPECT_EQ(doc.Find("kernel")->string_value(), "gaussian");
  EXPECT_EQ(doc.members().front().first, "kernel");
}

TEST(JsonTest, EqualityIsStructural) {
  EXPECT_EQ(Json(1), Json(1.0));  // same numeric value
  EXPECT_NE(Json(1), Json(2));
  EXPECT_NE(Json(1), Json("1"));
  Json a = Json::Object(), b = Json::Object();
  a["x"] = 1;
  a["y"] = 2;
  b["y"] = 2;
  b["x"] = 1;
  EXPECT_NE(a, b);  // member order is significant
}

TEST(JsonFileTest, WriteThenReadRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/hipacc_json_test_roundtrip.json";
  const Json doc = SampleDocument();
  ASSERT_TRUE(WriteFile(path, doc.Dump(2) + "\n").ok());
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto parsed = Json::Parse(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), doc);
  std::remove(path.c_str());
}

TEST(JsonFileTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadFile("/nonexistent/dir/nope.json").ok());
  EXPECT_FALSE(WriteFile("/nonexistent/dir/nope.json", "x").ok());
}

}  // namespace
}  // namespace hipacc::support
