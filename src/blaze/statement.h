// The statement grammar shared by the chaos plan (blaze/chaos.h) and the
// arrival schedule (blaze/stream.h): statements separated by ';' or
// newlines, whitespace insignificant, each statement read by one cursor
// parser. Every parse failure throws MalformedInput as
// "<what>: <why> in '<statement>'", so a typo in a schedule fails the whole
// load instead of silently running a different experiment.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace s2fa::blaze {

// Splits `text` on ';' and '\n', strips all whitespace, and drops empty
// statements.
std::vector<std::string> SplitStatements(const std::string& text);

// Cursor parser over one whitespace-stripped statement.
class StmtParser {
 public:
  // `what` names the grammar in error messages ("chaos plan").
  StmtParser(std::string stmt, const char* what)
      : stmt_(std::move(stmt)), what_(what) {}

  bool ConsumePrefix(std::string_view prefix);
  bool Consume(char c);
  void Expect(char c);
  void ExpectEnd();

  std::size_t ParseIndex();  // non-negative integer
  double ParseNumber();
  double ParseTimeUs();      // NUMBER ['us' | 'ms' | 's'] -> microseconds
  std::string ParseName();   // [A-Za-z0-9_-]+

  [[noreturn]] void Fail(const std::string& why) const;

 private:
  unsigned char Char(std::size_t i) const {
    return static_cast<unsigned char>(stmt_[i]);
  }

  std::string stmt_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace s2fa::blaze
