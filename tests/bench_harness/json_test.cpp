#include "bench_harness/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bench_harness/report.hpp"

namespace lmr::bench {
namespace {

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json{});
  EXPECT_EQ(Json::parse("true"), Json{true});
  EXPECT_EQ(Json::parse("false"), Json{false});
  EXPECT_EQ(Json::parse("42"), Json{std::int64_t{42}});
  EXPECT_EQ(Json::parse("-7"), Json{std::int64_t{-7}});
  EXPECT_EQ(Json::parse("2.5"), Json{2.5});
  EXPECT_EQ(Json::parse("\"hi\""), Json{"hi"});
}

TEST(Json, IntAndDoubleStayDistinct) {
  // 3 and 3.0 must survive a round trip with their types: metric fields are
  // doubles even when they land on integers, counters are ints.
  const Json i{std::int64_t{3}};
  const Json d{3.0};
  EXPECT_EQ(i.dump(), "3");
  EXPECT_EQ(d.dump(), "3.0");
  EXPECT_TRUE(Json::parse(i.dump()).is_int());
  EXPECT_TRUE(Json::parse(d.dump()).is_double());
}

TEST(Json, DoubleDumpIsShortestRoundTrip) {
  const double v = 0.1 + 0.2;  // classic non-representable sum
  const Json j{v};
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_double(), v);  // bit-exact after round trip
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = 1;
  obj["alpha"] = 2;
  obj["mid"] = 3;
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  const Json back = Json::parse(obj.dump());
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.members()[0].first, "zebra");
  EXPECT_EQ(back.members()[1].first, "alpha");
  EXPECT_EQ(back.members()[2].first, "mid");
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  const Json j{raw};
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, NestedRoundTripPretty) {
  Json doc = Json::object();
  doc["name"] = "suite";
  doc["ok"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  doc["items"] = std::move(arr);
  doc["nested"] = Json::object();
  doc["nested"]["empty_list"] = Json::array();

  for (const int indent : {0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent " << indent;
  }
}

TEST(Json, DumpIsDeterministic) {
  const auto build = [] {
    Json j = Json::object();
    j["b"] = 0.30000000000000004;
    j["a"] = Json::array();
    j["a"].push_back(-1.5e-7);
    return j;
  };
  EXPECT_EQ(build().dump(2), build().dump(2));
}

TEST(Json, ParseErrors) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, Uint64AboveInt64RangeThrows) {
  EXPECT_NO_THROW(Json{std::uint64_t{1} << 62});
  EXPECT_THROW(Json{~std::uint64_t{0}}, std::overflow_error);
  EXPECT_THROW(Json{std::uint64_t{1} << 63}, std::overflow_error);
}

TEST(Json, FindAndErase) {
  Json obj = Json::object();
  obj["keep"] = 1;
  obj["drop"] = 2;
  EXPECT_NE(obj.find("drop"), nullptr);
  obj.erase("drop");
  EXPECT_EQ(obj.find("drop"), nullptr);
  EXPECT_NE(obj.find("keep"), nullptr);
  EXPECT_EQ(obj.size(), 1u);
}

TEST(Report, StripVolatileRemovesRunAndTimingKeys) {
  Json vol = Json::object();
  vol["run"] = run_info_json(collect_run_info());
  vol["runtime_s"] = 0.5;
  Json doc = Json::object();
  doc["schema"] = "x/v2";
  doc[kVolatile] = std::move(vol);
  doc["metric"] = 1.25;
  // Outside the volatile member a key is kept whatever its name: a "run"
  // or an *_s key there is tracked data.
  Json inner = Json::object();
  inner["run"] = 3;
  inner["target_s"] = 1.0;
  inner["value"] = 7;
  Json arr = Json::array();
  arr.push_back(std::move(inner));
  doc["cases"] = std::move(arr);

  const Json stripped = strip_volatile(doc);
  EXPECT_EQ(stripped.find(kVolatile), nullptr);
  EXPECT_EQ(stripped.size(), 3u);  // schema, metric, cases
  ASSERT_NE(stripped.find("metric"), nullptr);
  ASSERT_NE(stripped.find("cases"), nullptr);
  const Json& c0 = stripped.find("cases")->items()[0];
  ASSERT_NE(c0.find("run"), nullptr);
  EXPECT_EQ(c0.find("run")->as_int(), 3);
  ASSERT_NE(c0.find("target_s"), nullptr);
  EXPECT_EQ(c0.find("target_s")->as_double(), 1.0);
  ASSERT_NE(c0.find("value"), nullptr);
  EXPECT_EQ(c0.find("value")->as_int(), 7);
}

TEST(Report, WriteAndReadRoundTrip) {
  Json doc = Json::object();
  doc["hello"] = "world";
  doc["pi"] = 3.14159;
  const std::string path = ::testing::TempDir() + "lmr_json_roundtrip.json";
  write_json_file(path, doc);
  EXPECT_EQ(read_json_file(path), doc);
}

TEST(Report, RunInfoIsPopulated) {
  const RunInfo info = collect_run_info();
  EXPECT_FALSE(info.host.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_GT(info.hardware_threads, 0);
  EXPECT_EQ(info.timestamp_utc.size(), 20u);  // YYYY-MM-DDTHH:MM:SSZ
}

}  // namespace
}  // namespace lmr::bench
