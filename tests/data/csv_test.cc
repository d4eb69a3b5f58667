#include "frapp/data/csv.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace frapp {
namespace data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // Named from the process id and the test name, never from `this`: two
  // test processes with the same heap layout must not share a file.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/frapp_csv_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  CategoricalSchema Schema() {
    StatusOr<CategoricalSchema> s =
        CategoricalSchema::Create({{"color", {"red", "blue"}}, {"size", {"S", "L"}}});
    return *std::move(s);
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTrip) {
  StatusOr<CategoricalTable> t = CategoricalTable::Create(Schema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AppendRow({0, 1}).ok());
  ASSERT_TRUE(t->AppendRow({1, 0}).ok());
  ASSERT_TRUE(WriteCsv(*t, path_).ok());

  StatusOr<CategoricalTable> back = ReadCsv(path_, Schema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->Value(0, 0), 0);
  EXPECT_EQ(back->Value(0, 1), 1);
  EXPECT_EQ(back->Value(1, 0), 1);
}

TEST_F(CsvTest, ReadsWhitespaceTolerantCells) {
  WriteFile("color,size\n red , L \nblue,S\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->Value(0, 1), 1);
}

TEST_F(CsvTest, SkipsBlankLines) {
  WriteFile("color,size\nred,S\n\n\nblue,L\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST_F(CsvTest, MissingFileIsIOError) {
  StatusOr<CategoricalTable> t = ReadCsv("/nonexistent/x.csv", Schema());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, EmptyFileIsError) {
  WriteFile("");
  EXPECT_FALSE(ReadCsv(path_, Schema()).ok());
}

TEST_F(CsvTest, HeaderMismatchRejected) {
  WriteFile("color,weight\nred,S\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, WrongColumnCountRejectedWithLineNumber) {
  WriteFile("color,size\nred\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos);
}

TEST_F(CsvTest, UnknownCategoryRejected) {
  WriteFile("color,size\npurple,S\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("purple"), std::string::npos);
}

TEST_F(CsvTest, UnknownCategoryNamesOffendingLine) {
  WriteFile("color,size\nred,S\nblue,L\npurple,S\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 4"), std::string::npos);
}

TEST_F(CsvTest, ReadsCrlfLineEndings) {
  WriteFile("color,size\r\nred,S\r\nblue,L\r\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->Value(1, 0), 1);
  EXPECT_EQ(t->Value(1, 1), 1);
}

TEST_F(CsvTest, ReadsFileWithoutTrailingNewline) {
  WriteFile("color,size\nred,S\nblue,L");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST_F(CsvTest, ReadsQuotedCells) {
  WriteFile("color,size\n\"red\",\"S\"\n\"blue\", \"L\" \n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->Value(1, 1), 1);
}

TEST_F(CsvTest, QuotedCellsMayContainCommasAndQuotes) {
  StatusOr<CategoricalSchema> schema = CategoricalSchema::Create(
      {{"name", {"a,b", "plain", "sa\"id"}}, {"size", {"S", "L"}}});
  ASSERT_TRUE(schema.ok());
  WriteFile("name,size\n\"a,b\",S\n\"sa\"\"id\",L\nplain,S\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, *schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->Value(0, 0), 0);
  EXPECT_EQ(t->Value(1, 0), 2);
  EXPECT_EQ(t->Value(2, 0), 1);
}

TEST_F(CsvTest, UnterminatedQuoteRejectedWithLineNumber) {
  WriteFile("color,size\nred,S\n\"blue,L\n");
  StatusOr<CategoricalTable> t = ReadCsv(path_, Schema());
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(t.status().message().find("unterminated"), std::string::npos);
}

TEST_F(CsvTest, WriteQuotesLabelsThatNeedIt) {
  StatusOr<CategoricalSchema> schema = CategoricalSchema::Create(
      {{"name", {"a,b", "plain"}}, {"size", {"S", "L"}}});
  ASSERT_TRUE(schema.ok());
  StatusOr<CategoricalTable> t = CategoricalTable::Create(*schema);
  ASSERT_TRUE(t->AppendRow({0, 1}).ok());
  ASSERT_TRUE(t->AppendRow({1, 0}).ok());
  ASSERT_TRUE(WriteCsv(*t, path_).ok());

  // Round trip: the comma-bearing label must survive its quoting.
  StatusOr<CategoricalTable> back = ReadCsv(path_, *schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->Value(0, 0), 0);
  EXPECT_EQ(back->Value(0, 1), 1);
  EXPECT_EQ(back->Value(1, 0), 1);
}

TEST_F(CsvTest, WriteRejectsNewlineLabels) {
  // The line-oriented reader cannot parse cells spanning lines, so writing
  // such labels must fail instead of producing an unreadable file.
  StatusOr<CategoricalSchema> schema = CategoricalSchema::Create(
      {{"name", {"two\nlines", "plain"}}, {"size", {"S", "L"}}});
  ASSERT_TRUE(schema.ok());
  StatusOr<CategoricalTable> t = CategoricalTable::Create(*schema);
  ASSERT_TRUE(t->AppendRow({1, 0}).ok());
  EXPECT_EQ(WriteCsv(*t, path_).code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ShardedReaderStreamsInChunks) {
  WriteFile("color,size\nred,S\nblue,L\nred,L\nblue,S\nred,S\n");
  StatusOr<ShardedCsvReader> reader = ShardedCsvReader::Open(path_, Schema());
  ASSERT_TRUE(reader.ok());
  StatusOr<CategoricalTable> first = reader->ReadShard(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->num_rows(), 2u);
  EXPECT_EQ(reader->rows_read(), 2u);
  StatusOr<CategoricalTable> second = reader->ReadShard(2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_rows(), 2u);
  StatusOr<CategoricalTable> tail = reader->ReadShard(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->num_rows(), 1u);
  EXPECT_EQ(reader->rows_read(), 5u);
  StatusOr<CategoricalTable> done = reader->ReadShard(2);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->num_rows(), 0u);
}

TEST_F(CsvTest, ShardedReaderChunksConcatenateToWholeFile) {
  WriteFile("color,size\nred,S\n\nblue,L\nred,L\nblue,S\n");
  StatusOr<CategoricalTable> whole = ReadCsv(path_, Schema());
  ASSERT_TRUE(whole.ok());

  StatusOr<ShardedCsvReader> reader = ShardedCsvReader::Open(path_, Schema());
  ASSERT_TRUE(reader.ok());
  size_t row = 0;
  while (true) {
    StatusOr<CategoricalTable> chunk = reader->ReadShard(3);
    ASSERT_TRUE(chunk.ok());
    if (chunk->num_rows() == 0) break;
    for (size_t i = 0; i < chunk->num_rows(); ++i, ++row) {
      for (size_t j = 0; j < whole->num_attributes(); ++j) {
        EXPECT_EQ(chunk->Value(i, j), whole->Value(row, j));
      }
    }
  }
  EXPECT_EQ(row, whole->num_rows());
}

TEST_F(CsvTest, RawShardsDecodeToTheSameTablesAsReadShard) {
  WriteFile("color,size\nred,S\n\nblue,L\nred,L\n\nblue,S\nred,S\n");
  StatusOr<ShardedCsvReader> direct = ShardedCsvReader::Open(path_, Schema());
  StatusOr<ShardedCsvReader> split = ShardedCsvReader::Open(path_, Schema());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(split.ok());
  size_t rows = 0;
  while (true) {
    StatusOr<CategoricalTable> want = direct->ReadShard(2);
    ASSERT_TRUE(want.ok());
    StatusOr<RawCsvShard> raw = split->ReadRawShard(2);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw->row_begin, rows);
    EXPECT_EQ(raw->num_rows, want->num_rows());
    StatusOr<CategoricalTable> got =
        ShardedCsvReader::DecodeRawShard(*raw, path_, Schema());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->num_rows(), want->num_rows());
    for (size_t i = 0; i < got->num_rows(); ++i) {
      for (size_t j = 0; j < got->num_attributes(); ++j) {
        EXPECT_EQ(got->Value(i, j), want->Value(i, j));
      }
    }
    if (want->num_rows() == 0) break;
    rows += want->num_rows();
  }
  EXPECT_EQ(rows, 5u);
  EXPECT_EQ(split->rows_read(), 5u);
}

TEST_F(CsvTest, RawShardDecodeKeepsExactErrorLineNumbers) {
  // Blank lines stay inside the raw text, so the malformed row reports the
  // same file line number whether decoded in-line or from the raw block.
  WriteFile("color,size\nred,S\n\n\npurple,L\n");
  StatusOr<ShardedCsvReader> reader = ShardedCsvReader::Open(path_, Schema());
  ASSERT_TRUE(reader.ok());
  StatusOr<RawCsvShard> raw = reader->ReadRawShard(10);
  ASSERT_TRUE(raw.ok());
  StatusOr<CategoricalTable> got =
      ShardedCsvReader::DecodeRawShard(*raw, path_, Schema());
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("line 5"), std::string::npos)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("purple"), std::string::npos);
}

TEST_F(CsvTest, RawShardAfterExhaustionIsEmpty) {
  WriteFile("color,size\nred,S\n");
  StatusOr<ShardedCsvReader> reader = ShardedCsvReader::Open(path_, Schema());
  ASSERT_TRUE(reader.ok());
  StatusOr<RawCsvShard> raw = reader->ReadRawShard(5);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->num_rows, 1u);
  raw = reader->ReadRawShard(5);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->num_rows, 0u);
  EXPECT_TRUE(raw->text.empty());
}

}  // namespace
}  // namespace data
}  // namespace frapp
