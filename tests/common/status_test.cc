#include "frapp/common/status.h"

#include <gtest/gtest.h>

#include <ostream>

namespace frapp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

struct FactoryCase {
  Status (*factory)(std::string);
  StatusCode code;
  const char* name;
};

// Prints the case by name. The default printer dumps the struct's raw bytes,
// which hold code addresses, so test names would change from build to build.
void PrintTo(const FactoryCase& c, std::ostream* os) { *os << c.name; }

class StatusFactoryTest : public ::testing::TestWithParam<FactoryCase> {};

TEST_P(StatusFactoryTest, FactorySetsCodeAndMessage) {
  const FactoryCase& c = GetParam();
  Status s = c.factory("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), c.code);
  EXPECT_EQ(s.message(), "boom");
  EXPECT_EQ(s.ToString(), std::string(c.name) + ": boom");
}

INSTANTIATE_TEST_SUITE_P(
    AllFactories, StatusFactoryTest,
    ::testing::Values(
        FactoryCase{&Status::InvalidArgument, StatusCode::kInvalidArgument,
                    "InvalidArgument"},
        FactoryCase{&Status::FailedPrecondition, StatusCode::kFailedPrecondition,
                    "FailedPrecondition"},
        FactoryCase{&Status::NotFound, StatusCode::kNotFound, "NotFound"},
        FactoryCase{&Status::OutOfRange, StatusCode::kOutOfRange, "OutOfRange"},
        FactoryCase{&Status::NumericalError, StatusCode::kNumericalError,
                    "NumericalError"},
        FactoryCase{&Status::IOError, StatusCode::kIOError, "IOError"},
        FactoryCase{&Status::Unimplemented, StatusCode::kUnimplemented,
                    "Unimplemented"},
        FactoryCase{&Status::Internal, StatusCode::kInternal, "Internal"}));

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IOError("x"));
}

TEST(StatusTest, CopyIsCheapAndIndependent) {
  Status a = Status::Internal("shared");
  Status b = a;
  EXPECT_EQ(a, b);
  a = Status::OK();
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "shared");
}

TEST(StatusTest, OkCodeWithMessageNormalizesToOk) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

Status FailsThrough(bool fail) {
  FRAPP_RETURN_IF_ERROR(fail ? Status::IOError("inner") : Status::OK());
  return Status::Internal("reached-end");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough(true).code(), StatusCode::kIOError);
  EXPECT_EQ(FailsThrough(false).code(), StatusCode::kInternal);
}

TEST(StatusCodeTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNumericalError), "NumericalError");
}

}  // namespace
}  // namespace frapp
