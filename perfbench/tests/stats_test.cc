#include "stats.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "layers.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 50.0), 50.0);
  EXPECT_EQ(Percentile(samples, 99.0), 99.0);
  EXPECT_EQ(Percentile(samples, 100.0), 100.0);
  EXPECT_EQ(Percentile(samples, 0.0), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  std::vector<double> many(10000);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<double>(i + 1);
  EXPECT_EQ(Percentile(many, 99.9), 9990.0);
}

TEST(PercentileTest, HighestResolvableNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestResolvablePercentile(1000), 99.0);  // 10 beyond rank 990
  EXPECT_EQ(HighestResolvablePercentile(999), 90.0);   // only 9 beyond p99
  EXPECT_EQ(HighestResolvablePercentile(10000), 99.9);
  EXPECT_EQ(HighestResolvablePercentile(100000), 99.99);
  EXPECT_EQ(HighestResolvablePercentile(100), 90.0);   // 10 beyond rank 90
  EXPECT_EQ(HighestResolvablePercentile(99), 50.0);
  EXPECT_EQ(HighestResolvablePercentile(19), 0.0);
  EXPECT_EQ(HighestResolvablePercentile(20), 50.0);
}

TEST(MetricNameTest, Validity) {
  EXPECT_TRUE(ValidMetricName("op_p50_ms"));
  EXPECT_TRUE(ValidMetricName("mining.count_ms.L3"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/ed"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

std::string ReadRepoFile(const std::string& relative) {
  std::ifstream file(std::string(PERFBENCH_REPO_ROOT) + "/" + relative);
  std::stringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

/// The text of the JSON array under `key` in `json`, brackets included.
std::string ArrayUnder(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return "";
  const size_t open = json.find('[', at);
  int depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '[') ++depth;
    if (json[i] == ']' && --depth == 0) return json.substr(open, i + 1 - open);
  }
  return "";
}

/// Every string value of `field` in `text`, in order, as name -> unit when
/// `with_unit` (the unit that follows the name), else name -> "".
std::multimap<std::string, std::string> Entries(const std::string& text,
                                                bool with_unit) {
  std::multimap<std::string, std::string> entries;
  const std::string name_key = "\"name\": \"";
  const std::string unit_key = "\"unit\": \"";
  for (size_t at = text.find(name_key); at != std::string::npos;
       at = text.find(name_key, at + 1)) {
    const size_t name = at + name_key.size();
    std::string unit;
    if (with_unit) {
      const size_t u = text.find(unit_key, name) + unit_key.size();
      unit = text.substr(u, text.find('"', u) - u);
    }
    entries.emplace(text.substr(name, text.find('"', name) - name), unit);
  }
  return entries;
}

std::multimap<std::string, std::string> SpecEntries(
    const std::vector<MetricSpec>& specs) {
  std::multimap<std::string, std::string> entries;
  for (const MetricSpec& spec : specs) entries.emplace(spec.name, spec.unit);
  return entries;
}

TEST(MetricNameTest, EveryReportedMetricNameIsValid) {
  for (const MetricSpec& spec : EndToEndMetricSpecs()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
  }
  for (const MetricSpec& spec : LayerMetricSpecs()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
  }
}

// BENCHMARK.json lists exactly the metrics the benchmark prints, each once,
// in the section it is printed under and with the same unit; and exactly
// the workloads run.py accepts.
TEST(BenchmarkJsonTest, ListsExactlyWhatTheBenchmarkPrints) {
  const std::string json = ReadRepoFile("BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(Entries(ArrayUnder(json, "end_to_end"), true),
            SpecEntries(EndToEndMetricSpecs()));
  EXPECT_EQ(Entries(ArrayUnder(json, "per_layer"), true),
            SpecEntries(LayerMetricSpecs()));

  const std::string run_py = ReadRepoFile("perfbench/run.py");
  const size_t line = run_py.find("\nWORKLOADS = (");
  ASSERT_NE(line, std::string::npos);
  std::multimap<std::string, std::string> accepted;
  const std::string list =
      run_py.substr(line, run_py.find(')', line) - line);
  for (size_t q = list.find('"'); q != std::string::npos;
       q = list.find('"', list.find('"', q + 1) + 1)) {
    accepted.emplace(list.substr(q + 1, list.find('"', q + 1) - q - 1), "");
  }
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(Entries(ArrayUnder(json, "workloads"), false), accepted);
}

TEST(RenderResultTest, ExactKeysAndFullPrecision) {
  const std::string line =
      RenderResult(true, 1200, 0, {{"op_p50_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1200, \"failed\": 0, "
            "\"metrics\": {\"op_p50_ms\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
