#include "bench_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/kernels.h"
#include "util/thread_pool.h"

namespace arecel::bench {
namespace {

TEST(BenchReportTest, WritesThePinnedBytes) {
  BenchReport report("bench_test");
  report.Add("rows", size_t{20000}).Add("note", "say \"hi\"\\ then\nbye");
  report.BeginObject("headline");
  report.Add("first", JsonRow().Add("seconds", 0.25).Add("ok", true));
  report.Add("second", JsonRow().Add("name", std::string("b")));
  report.EndObject();
  report.Add("cells",
             std::vector<JsonRow>{
                 JsonRow()
                     .Add("nan", std::numeric_limits<double>::quiet_NaN())
                     .Add("inf", std::numeric_limits<double>::infinity()),
                 JsonRow()
                     .Add("ninf", -std::numeric_limits<double>::infinity())
                     .Add("max", std::numeric_limits<uint64_t>::max())
                     .Add("delta", -3)});
  report.Add("empty", std::vector<JsonRow>{});
  report.BeginObject("none").EndObject();

  const std::string header =
      std::string("{\n  \"bench\": \"bench_test\",\n  \"backend\": \"") +
      MlKernelBackendName(ActiveMlKernelBackend()) + "\",\n  \"simd\": \"" +
      MlKernelSimdName() + "\",\n  \"cpu\": \"" + MlCpuFeatureFlags() +
      "\",\n  \"workers\": " + std::to_string(ParallelWorkerCount()) + ",\n";
  EXPECT_EQ(report.str(),
            header +
                "  \"rows\": 20000,\n"
                "  \"note\": \"say \\\"hi\\\"\\\\ then\\nbye\",\n"
                "  \"headline\": {\n"
                "    \"first\": {\"seconds\": 0.25, \"ok\": true},\n"
                "    \"second\": {\"name\": \"b\"}\n"
                "  },\n"
                "  \"cells\": [\n"
                "    {\"nan\": null, \"inf\": null},\n"
                "    {\"ninf\": null, \"max\": 18446744073709551615, "
                "\"delta\": -3}\n"
                "  ],\n"
                "  \"empty\": [],\n"
                "  \"none\": {}\n"
                "}\n");
}

TEST(BenchReportTest, DoublesKeepSixDigitsOrEveryIntegerDigit) {
  EXPECT_EQ(JsonValue(0.0), "0");
  EXPECT_EQ(JsonValue(-0.5), "-0.5");
  EXPECT_EQ(JsonValue(34.29564321), "34.2956");
  EXPECT_EQ(JsonValue(0.000527123), "0.000527123");
  EXPECT_EQ(JsonValue(1.1920929e-7), "1.19209e-07");
  EXPECT_EQ(JsonValue(99999.97), "100000");
  EXPECT_EQ(JsonValue(999999.7), "999999.7");
  EXPECT_EQ(JsonValue(2217114.04), "2217114");
  EXPECT_EQ(JsonValue(-2217114.04), "-2217114");
}

TEST(BenchReportTest, ControlCharactersAreEscaped) {
  EXPECT_EQ(JsonValue("a\tb\rc\x01"), "\"a\\u0009b\\u000dc\\u0001\"");
}

TEST(BenchReportTest, WriteToWritesTheDocument) {
  BenchReport report("bench_test");
  report.Add("value", 1.5);
  const std::string path =
      ::testing::TempDir() + "/bench_report_test_output.json";
  ASSERT_TRUE(report.WriteTo(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), report.str());
  EXPECT_FALSE(report.WriteTo(::testing::TempDir() + "/no/such/dir/x.json"));
}

TEST(BenchReportTest, CommandLineTakesSmokeAndOut) {
  char prog[] = "bench_x", smoke[] = "--smoke", out[] = "--out",
       path[] = "r.json";

  char* none[] = {prog};
  const BenchArgs full = ParseBenchArgs(1, none, "x");
  EXPECT_FALSE(full.smoke);
  EXPECT_EQ(full.out.front(), '/');
  EXPECT_TRUE(full.out.ends_with("/BENCH_x.json")) << full.out;

  char* smoke_only[] = {prog, smoke};
  const BenchArgs small = ParseBenchArgs(2, smoke_only, "x");
  EXPECT_TRUE(small.smoke);
  EXPECT_EQ(small.out, "BENCH_x_smoke.json");

  char* both[] = {prog, out, path, smoke};
  EXPECT_EQ(ParseBenchArgs(4, both, "x").out, "r.json");
}

TEST(BenchReportDeathTest, AnyOtherArgumentExitsWithUsage) {
  char prog[] = "bench_x", knob[] = "--out=r.json";
  char* argv[] = {prog, knob};
  EXPECT_EXIT(ParseBenchArgs(2, argv, "x"), ::testing::ExitedWithCode(2),
              "usage: bench_x \\[--smoke\\] \\[--out <path>\\]");
}

}  // namespace
}  // namespace arecel::bench
