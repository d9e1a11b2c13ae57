// Seeded mutation fuzzer for the parsers that read untrusted serve
// input: the wire frame reader and decoders (ReadFrame, ParseRequest,
// ParseResponse) and the delta parser that reads an `update` body
// (ParseDeltaFile).
//
// Every case starts from a valid encoding and takes a few seeded
// mutations (protocol tokens inserted or deleted, bytes flipped, the
// text truncated or a span repeated). Each parser must then either fail
// with a clean Status of the documented code, or return a value that
// re-encodes and parses back to itself. Seeds and iteration counts are
// fixed, so a failure replays exactly; run under asan-ubsan (the CI
// fault sweep) a crash or an out-of-bounds read fails too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/incremental.h"
#include "serve/protocol.h"

namespace diva {
namespace {

using serve::EncodeRequest;
using serve::EncodeResponse;
using serve::ParseRequest;
using serve::ParseResponse;
using serve::Request;
using serve::Response;

constexpr int kCases = 10000;

std::string Pick(const std::vector<std::string>& options, Rng* rng) {
  return options[rng->NextBounded(options.size())];
}

/// A short value token: no space, newline or carriage return.
std::string Token(Rng* rng) {
  static const std::string kAlphabet = "abcxyz0123456789.-_*";
  std::string out;
  const size_t length = rng->NextBounded(6);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBounded(kAlphabet.size())];
  }
  return out;
}

/// Applies 1-4 seeded mutations to `text`, favouring the bytes and
/// tokens the parsers branch on.
void Mutate(std::string* text, const std::vector<std::string>& tokens,
            Rng* rng) {
  const size_t mutations = 1 + rng->NextBounded(4);
  for (size_t m = 0; m < mutations; ++m) {
    const size_t at = rng->NextBounded(text->size() + 1);
    switch (rng->NextBounded(6)) {
      case 0:  // insert a token
        text->insert(at, Pick(tokens, rng));
        break;
      case 1: {  // delete the token occurrence nearest after `at`
        const std::string token = Pick(tokens, rng);
        size_t found = text->find(token, at);
        if (found == std::string::npos) found = text->find(token);
        if (found != std::string::npos) text->erase(found, token.size());
        break;
      }
      case 2:  // delete a few bytes
        text->erase(at, rng->NextBounded(4) + 1);
        break;
      case 3:  // overwrite one byte with any value
        if (at < text->size()) {
          (*text)[at] = static_cast<char>(rng->NextBounded(256));
        }
        break;
      case 4:  // truncate
        text->resize(at);
        break;
      default: {  // repeat a span
        const size_t length = rng->NextBounded(text->size() - at + 1);
        text->insert(at, text->substr(at, length));
        break;
      }
    }
  }
}

const std::vector<std::string>& WireTokens() {
  static const std::vector<std::string> kTokens = {
      " ",      "  ",    "=",    "\n", "\n\n",         "\r",
      "ok",     "ok ",   "error ", "code=", "msg=",   "k=",
      "\xff",   "-1",    "deadline_ms=",   "Unavailable",
      "99999999999999999999", std::string(1, '\0')};
  return kTokens;
}

/// A delta body like the ones `update` carries.
std::string ValidDelta(Rng* rng) {
  std::string text;
  const size_t lines = rng->NextBounded(6);
  for (size_t i = 0; i < lines; ++i) {
    switch (rng->NextBounded(4)) {
      case 0:
        text += "- " + std::to_string(rng->NextBounded(5000)) + "\n";
        break;
      case 1:
        text += "# comment " + Token(rng) + "\n";
        break;
      case 2:
        text += "\n";
        break;
      default:
        text += "+ " + Token(rng) + "," + Token(rng) + ",*," + Token(rng) +
                "\n";
        break;
    }
  }
  return text;
}

Request ValidRequest(Rng* rng) {
  static const std::vector<std::string> kVerbs = {
      "anonymize", "verify", "fetch", "update", "stats", "ping"};
  static const std::vector<std::string> kKeys = {
      "k", "l", "t", "seed", "snapshot", "deadline_ms", "baseline"};
  Request request;
  request.verb = Pick(kVerbs, rng);
  const size_t params = rng->NextBounded(5);
  for (size_t i = 0; i < params; ++i) {
    request.params[Pick(kKeys, rng)] = Token(rng);
  }
  if (rng->NextBounded(3) == 0) request.body = ValidDelta(rng);
  return request;
}

Response ValidResponse(Rng* rng) {
  static const std::vector<StatusCode> kCodes = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kUnavailable, StatusCode::kIoError, StatusCode::kInternal};
  Response response;
  if (rng->NextBounded(3) == 0) {
    response = Response::Error(
        Status(kCodes[rng->NextBounded(kCodes.size())],
               "no snapshot " + Token(rng) + " (latest=" + Token(rng) + ")"));
  } else {
    const size_t fields = rng->NextBounded(6);
    for (size_t i = 0; i < fields; ++i) {
      response.fields["f" + std::to_string(rng->NextBounded(8))] = Token(rng);
    }
  }
  if (rng->NextBounded(3) == 0) {
    response.body = "A,B\n" + Token(rng) + ",*\n";
  }
  return response;
}

/// What a parsed value re-encodes to: EncodeRequest/EncodeResponse write
/// `<non-token>` for a value holding a carriage return, and an error
/// message's carriage returns become spaces.
std::string Normalized(const std::string& value) {
  return value.find('\r') == std::string::npos ? value : "<non-token>";
}

void ExpectSameRequest(const Request& a, const Request& b) {
  EXPECT_EQ(a.verb, b.verb);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.body, b.body);
}

void ExpectSameResponse(const Response& a, const Response& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.fields, b.fields);
  EXPECT_EQ(a.body, b.body);
}

TEST(WireFuzzTest, MutatedRequestsFailCleanlyOrRoundTrip) {
  Rng rng(0x5EED0001);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string payload = EncodeRequest(ValidRequest(&rng));
    Mutate(&payload, WireTokens(), &rng);
    SCOPED_TRACE("case " + std::to_string(i));
    Result<Request> request = ParseRequest(payload);
    if (!request.ok()) {
      ++refused;
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(request.status().message().empty());
      continue;
    }
    ++parsed;
    EXPECT_FALSE(request->verb.empty());
    Request expected = *request;
    for (auto& [key, value] : expected.params) {
      EXPECT_FALSE(key.empty());
      value = Normalized(value);
    }
    Result<Request> again = ParseRequest(EncodeRequest(*request));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameRequest(*again, expected);
  }
  // Both outcomes are exercised, so neither branch is vacuous.
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_GT(refused, kCases / 50);
}

TEST(WireFuzzTest, MutatedResponsesFailCleanlyOrRoundTrip) {
  Rng rng(0x5EED0002);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string payload = EncodeResponse(ValidResponse(&rng));
    Mutate(&payload, WireTokens(), &rng);
    SCOPED_TRACE("case " + std::to_string(i));
    Result<Response> response = ParseResponse(payload);
    if (!response.ok()) {
      ++refused;
      EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(response.status().message().empty());
      continue;
    }
    ++parsed;
    Response expected = *response;
    for (auto& [key, value] : expected.fields) {
      EXPECT_FALSE(key.empty());
      value = Normalized(value);
    }
    for (char& c : expected.message) {
      if (c == '\r') c = ' ';
    }
    Result<Response> again = ParseResponse(EncodeResponse(*response));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameResponse(*again, expected);
  }
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_GT(refused, kCases / 50);
}

TEST(WireFuzzTest, MutatedFramesReadCleanly) {
  // A frame is a 4-byte big-endian length and its payload. The peer
  // writes a mutated frame and hangs up; ReadFrame must return exactly
  // the declared payload, or NotFound (nothing at all was sent), or
  // IoError (short frame or a length over the cap) — never read past
  // what arrived.
  constexpr size_t kCap = 256;
  Rng rng(0x5EED0003);
  int read = 0;
  int refused = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string payload = EncodeRequest(ValidRequest(&rng));
    const uint32_t size = static_cast<uint32_t>(payload.size());
    std::string frame = {static_cast<char>(size >> 24),
                         static_cast<char>(size >> 16),
                         static_cast<char>(size >> 8),
                         static_cast<char>(size)};
    frame += payload;
    Mutate(&frame, WireTokens(), &rng);
    SCOPED_TRACE("case " + std::to_string(i));

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::shutdown(fds[1], SHUT_WR);
    Result<std::string> got = serve::ReadFrame(fds[0], kCap);
    ::close(fds[0]);
    ::close(fds[1]);

    if (!got.ok()) {
      ++refused;
      const StatusCode code = got.status().code();
      if (frame.empty()) {
        EXPECT_EQ(code, StatusCode::kNotFound);
      } else {
        EXPECT_EQ(code, StatusCode::kIoError) << got.status().ToString();
      }
      continue;
    }
    ++read;
    ASSERT_GE(frame.size(), 4u);
    const uint32_t declared =
        (static_cast<uint32_t>(static_cast<unsigned char>(frame[0])) << 24) |
        (static_cast<uint32_t>(static_cast<unsigned char>(frame[1])) << 16) |
        (static_cast<uint32_t>(static_cast<unsigned char>(frame[2])) << 8) |
        static_cast<uint32_t>(static_cast<unsigned char>(frame[3]));
    EXPECT_LE(declared, kCap);
    EXPECT_EQ(*got, frame.substr(4, declared));
  }
  EXPECT_GT(read, kCases / 10);
  EXPECT_GT(refused, kCases / 50);
}

TEST(DeltaFuzzTest, MutatedDeltasFailCleanlyOrRoundTrip) {
  static const std::vector<std::string> kTokens = {
      "- ", "+ ", "-", "+", "#", ",", " ", "\n", "\r", "\t",
      std::string(1, '\0'), "*", "-1", "4294967296", "99999999999999999999",
      "\xe2\x98\x85"};
  Rng rng(0x5EED0004);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string text = ValidDelta(&rng);
    Mutate(&text, kTokens, &rng);
    SCOPED_TRACE("case " + std::to_string(i));
    Result<DeltaBatch> delta = ParseDeltaFile(text);
    if (!delta.ok()) {
      ++refused;
      EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(delta.status().message().rfind("delta line ", 0), 0u)
          << delta.status().message();
      continue;
    }
    ++parsed;
    std::string encoded;
    for (RowId id : delta->deleted) {
      encoded += "- " + std::to_string(id) + "\n";
    }
    for (const std::vector<std::string>& row : delta->inserted) {
      encoded += "+ " + Join(row, ",") + "\n";
    }
    Result<DeltaBatch> again = ParseDeltaFile(encoded);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->deleted, delta->deleted);
    EXPECT_EQ(again->inserted, delta->inserted);
  }
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_GT(refused, kCases / 50);
}

}  // namespace
}  // namespace diva
