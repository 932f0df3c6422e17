#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "relation/compressed_sequence.h"
#include "relation/csv.h"
#include "relation/degree_sequence.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

TEST(Csv, ParseWithHeader) {
  auto rel = RelationFromCsv("R", "x,y\n1,2\n3,4\n");
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->arity(), 2);
  EXPECT_EQ(rel->attr(0), "x");
  EXPECT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->At(1, 1), 4u);
}

TEST(Csv, ParseWithoutHeader) {
  CsvOptions opt;
  opt.has_header = false;
  auto rel = RelationFromCsv("R", "1,2\n3,4\n", opt);
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->attr(0), "c0");
  EXPECT_EQ(rel->NumRows(), 2u);
}

TEST(Csv, SnapStyleTabsAndComments) {
  CsvOptions opt;
  opt.delimiter = '\t';
  opt.has_header = false;
  auto rel = RelationFromCsv(
      "E", "# Directed graph\n# src\tdst\n0\t1\n1\t2\n", opt);
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->At(1, 0), 1u);
}

TEST(Csv, RejectsRaggedRows) {
  std::string error;
  EXPECT_FALSE(RelationFromCsv("R", "x,y\n1,2\n3\n", {}, &error).has_value());
  EXPECT_NE(error.find("expected 2 fields"), std::string::npos);
}

TEST(Csv, RejectsNonNumeric) {
  std::string error;
  EXPECT_FALSE(
      RelationFromCsv("R", "x\nfoo\n", {}, &error).has_value());
  EXPECT_NE(error.find("not an unsigned integer"), std::string::npos);
}

TEST(Csv, RejectsOutOfRangeValue) {
  auto max = RelationFromCsv("R", "x\n18446744073709551615\n");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->At(0, 0), 18446744073709551615ull);
  // 2^64, a 20-digit value far above 2^64 - 1, and 2^64 behind leading
  // zeros on a later line.
  for (const char* text : {"x\n18446744073709551616\n",
                           "x\n99999999999999999999\n",
                           "x\n1\n0000018446744073709551616\n"}) {
    std::string error;
    EXPECT_FALSE(RelationFromCsv("R", text, {}, &error).has_value()) << text;
    EXPECT_NE(error.find("not an unsigned integer"), std::string::npos)
        << text;
  }
}

TEST(Csv, RejectsEmpty) {
  std::string error;
  EXPECT_FALSE(RelationFromCsv("R", "", {}, &error).has_value());
}

TEST(Csv, WhitespaceTolerant) {
  auto rel = RelationFromCsv("R", "x, y\n 1 , 2 \n");
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->attr(1), "y");
  EXPECT_EQ(rel->At(0, 1), 2u);
}

TEST(Csv, RoundTripThroughString) {
  Relation r("R", {"a", "b"});
  r.AddRow({10, 20});
  r.AddRow({30, 40});
  auto parsed = RelationFromCsv("R", RelationToCsv(r));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->NumRows(), 2u);
  EXPECT_EQ(parsed->At(0, 0), 10u);
  EXPECT_EQ(parsed->At(1, 1), 40u);
  EXPECT_EQ(parsed->attrs(), r.attrs());
}

TEST(Csv, RoundTripThroughFile) {
  Relation r("R", {"a", "b"});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) r.AddRow({rng.Uniform(50), rng.Uniform(50)});
  const std::string path =
      (std::filesystem::temp_directory_path() / "lpb_csv_test.csv").string();
  ASSERT_TRUE(SaveRelationCsv(r, path));
  auto loaded = LoadRelationCsv("R", path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->NumRows(), r.NumRows());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    EXPECT_EQ(loaded->At(i, 0), r.At(i, 0));
    EXPECT_EQ(loaded->At(i, 1), r.At(i, 1));
  }
}

TEST(Csv, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(
      LoadRelationCsv("R", "/nonexistent/nope.csv", {}, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Compression, DominatesOriginal) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> degs;
    ZipfSampler zipf(1000, 1.1);
    for (int i = 0; i < 500; ++i) degs.push_back(1 + zipf.Sample(rng));
    DegreeSequence d(std::move(degs));
    DegreeSequence c = CompressDominating(d);
    ASSERT_EQ(c.size(), d.size());
    EXPECT_TRUE(d.DominatedBy(c)) << "trial " << trial;
  }
}

TEST(Compression, ShrinksStorage) {
  std::vector<uint64_t> degs;
  for (uint64_t i = 1; i <= 400; ++i) degs.push_back(i);  // all distinct
  DegreeSequence d(std::move(degs));
  CompressionOptions opt;
  opt.exact_head = 8;
  opt.tail_buckets = 8;
  DegreeSequence c = CompressDominating(d, opt);
  EXPECT_EQ(DistinctDegreeValues(d), 400u);
  EXPECT_LE(DistinctDegreeValues(c), 16u);
}

TEST(Compression, NormsDominateToo) {
  // Dominating sequences have dominating ℓp norms — so bounds computed
  // from the summary stay sound.
  std::vector<uint64_t> degs;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) degs.push_back(1 + rng.Uniform(100));
  DegreeSequence d(std::move(degs));
  DegreeSequence c = CompressDominating(d);
  for (double p : {1.0, 2.0, 3.0, 10.0, kInfNorm}) {
    EXPECT_GE(c.Log2NormP(p), d.Log2NormP(p) - 1e-12) << "p=" << p;
  }
}

TEST(Compression, HeadIsExact) {
  std::vector<uint64_t> degs = {100, 90, 80, 70, 5, 4, 3, 2, 1};
  DegreeSequence d{std::vector<uint64_t>(degs)};
  CompressionOptions opt;
  opt.exact_head = 4;
  opt.tail_buckets = 2;
  DegreeSequence c = CompressDominating(d, opt);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.degrees()[i], degs[i]);
}

TEST(Compression, ShortSequencesUnchanged) {
  DegreeSequence d({5, 3, 1});
  DegreeSequence c = CompressDominating(d);
  EXPECT_EQ(c.degrees(), d.degrees());
}

}  // namespace
}  // namespace lpb
