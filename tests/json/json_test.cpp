#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/rng.hpp"

namespace exadigit {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, NestedStructures) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_TRUE(j.at("a").at(std::size_t{2}).at("b").as_bool());
  EXPECT_TRUE(j.at("c").at("d").is_null());
}

TEST(JsonParseTest, StringEscapes) {
  const Json j = Json::parse(R"("line\nquote\" tab\t back\\ uA")");
  EXPECT_EQ(j.as_string(), "line\nquote\" tab\t back\\ uA");
}

TEST(JsonParseTest, UnicodeEscapeToUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // e-acute
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // euro
}

TEST(JsonParseTest, WhitespaceTolerance) {
  const Json j = Json::parse(" \n\t{ \"a\" :\r 1 } \n");
  EXPECT_EQ(j.at("a").as_int(), 1);
}

TEST(JsonParseTest, ErrorsCarryPosition) {
  try {
    Json::parse("{\n  \"a\": tru\n}");
    FAIL() << "expected parse error";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("1 trailing"), JsonParseError);
  EXPECT_THROW(Json::parse("01a"), JsonParseError);
  EXPECT_THROW(Json::parse("nul"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonParseError);
  EXPECT_THROW(Json::parse("\"raw\ncontrol\""), JsonParseError);
}

TEST(JsonTypeTest, CheckedAccessorsThrowOnMismatch) {
  const Json j = Json::parse("{\"n\": 1.5}");
  EXPECT_THROW(j.at("n").as_string(), JsonTypeError);
  EXPECT_THROW(j.as_array(), JsonTypeError);
  EXPECT_THROW(j.at("missing"), JsonTypeError);
  EXPECT_THROW(j.at("n").as_int(), JsonTypeError);  // non-integral number
}

TEST(JsonTypeTest, IntAccessor) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
}

TEST(JsonTypeTest, IntAccessorRejectsValuesOutsideInt64) {
  // Integral doubles outside [-2^63, 2^63) have no int64 value; converting
  // them is undefined behaviour, so they must throw instead.
  EXPECT_THROW(Json::parse("1e300").as_int(), JsonTypeError);
  EXPECT_THROW(Json::parse("9.3e18").as_int(), JsonTypeError);
  EXPECT_THROW(Json::parse("-1e19").as_int(), JsonTypeError);
  EXPECT_THROW(Json::parse("{\"seed\": 1e300}").int_or("seed", 0), JsonTypeError);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonTypeTest, DefaultedAccessors) {
  const Json j = Json::parse("{\"x\": 2, \"s\": \"v\", \"b\": true}");
  EXPECT_DOUBLE_EQ(j.number_or("x", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(j.number_or("y", 9.0), 9.0);
  EXPECT_EQ(j.int_or("x", 9), 2);
  EXPECT_EQ(j.string_or("s", "d"), "v");
  EXPECT_EQ(j.string_or("t", "d"), "d");
  EXPECT_TRUE(j.bool_or("b", false));
  EXPECT_TRUE(j.bool_or("nope", true));
}

TEST(JsonBuildTest, MutatingOperators) {
  Json j;
  j["a"] = Json(1);
  j["b"]["c"] = Json("deep");
  Json arr;
  arr.push_back(Json(1));
  arr.push_back(Json(2));
  j["list"] = arr;
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").at("c").as_string(), "deep");
  EXPECT_EQ(j.at("list").as_array().size(), 2u);
}

TEST(JsonDumpTest, CompactAndPretty) {
  Json j;
  j["b"] = Json(1);
  j["a"] = Json(Json::Array{Json(true), Json(nullptr)});
  const std::string compact = j.dump();
  EXPECT_EQ(compact, R"({"a":[true,null],"b":1})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(JsonDumpTest, NumbersKeepIntegerShape) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(5.5).dump(), "5.5");
  EXPECT_EQ(Json(-0.25).dump(), "-0.25");
}

TEST(JsonDumpTest, NonIntegralNumbersAreShortestRoundTrip) {
  // The canonical dump emits the shortest decimal that parses back to the
  // same double — never the %.17g noise ("0.10000000000000001").
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333333333");
  EXPECT_EQ(Json(2.5e-7).dump(), "2.5e-07");
  // ... and still parses back bit-identically.
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-7, 1.0000000000000002, -9876.54321}) {
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v);
  }
}

TEST(JsonDumpTest, EqualValuesDumpToEqualBytes) {
  // Canonical serialization: member order of construction never shows in the
  // output (std::map keys), so semantically equal documents byte-match.
  Json a;
  a["x"] = Json(0.25);
  a["y"] = Json("s");
  Json b;
  b["y"] = Json("s");
  b["x"] = Json(0.25);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(Json::parse(R"({"y": "s", "x": 0.25})").dump(), a.dump());
}

TEST(JsonDumpTest, NanSerializesAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(JsonDumpTest, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonMergePatchTest, ObjectsMergeRecursively) {
  const Json base = Json::parse(R"({"a": {"x": 1, "y": 2}, "b": 3})");
  const Json patch = Json::parse(R"({"a": {"y": 20, "z": 30}})");
  const Json merged = Json::merge_patch(base, patch);
  EXPECT_TRUE(merged == Json::parse(R"({"a": {"x": 1, "y": 20, "z": 30}, "b": 3})"));
}

TEST(JsonMergePatchTest, NullDeletesAndScalarsReplace) {
  const Json base = Json::parse(R"({"a": 1, "b": {"c": 2}, "d": [1, 2]})");
  const Json patch = Json::parse(R"({"a": null, "b": 7, "d": [9]})");
  const Json merged = Json::merge_patch(base, patch);
  EXPECT_TRUE(merged == Json::parse(R"({"b": 7, "d": [9]})"));
}

TEST(JsonMergePatchTest, NonObjectPatchReplacesWholesale) {
  EXPECT_TRUE(Json::merge_patch(Json::parse(R"({"a": 1})"), Json(5.0)) == Json(5.0));
  // A patch object applied to a scalar builds a fresh object, stripping the
  // patch's own null members (RFC 7386).
  const Json merged = Json::merge_patch(Json(1.0), Json::parse(R"({"a": 1, "b": null})"));
  EXPECT_TRUE(merged == Json::parse(R"({"a": 1})"));
}

TEST(JsonEqualityTest, DeepEquality) {
  const Json a = Json::parse(R"({"x":[1,{"y":2}]})");
  const Json b = Json::parse(R"({ "x" : [ 1, { "y": 2 } ] })");
  const Json c = Json::parse(R"({"x":[1,{"y":3}]})");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

/// Property: dump -> parse round-trips randomly generated documents.
class JsonRoundTripProperty : public ::testing::TestWithParam<int> {};

Json random_json(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth > 2 ? 3 : 5));
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.bernoulli(0.5));
    case 2: return Json(rng.normal(0.0, 1000.0));
    case 3: return Json("s" + std::to_string(rng.uniform_int(0, 999)) + "\"\n\\x");
    case 4: {
      Json::Array arr;
      const int n = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < n; ++i) arr.push_back(random_json(rng, depth + 1));
      return Json(std::move(arr));
    }
    default: {
      Json::Object obj;
      const int n = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < n; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth + 1);
      }
      return Json(std::move(obj));
    }
  }
}

TEST_P(JsonRoundTripProperty, DumpParseIsIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 25; ++i) {
    const Json original = random_json(rng, 0);
    const Json compact = Json::parse(original.dump());
    const Json pretty = Json::parse(original.dump(2));
    EXPECT_TRUE(compact == original) << original.dump();
    EXPECT_TRUE(pretty == original) << original.dump(2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace exadigit
