// The command-line contract hoihod and the example and bench tools share:
// `--help` prints usage on stdout and exits 0; an unknown `--flag`, a flag
// without its value or a stray argument prints usage on stderr and exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace hoiho::util {

// Walks argv one argument at a time:
//
//   util::Args args(argc, argv, "usage: tool [--n N]\n");
//   while (args.next())
//     if (args.is("--n")) n = std::atoi(args.value());
//     else args.reject();
class Args {
 public:
  // `usage` starts with "usage:" and ends with a newline.
  Args(int argc, char** argv, std::string usage)
      : argc_(argc), argv_(argv), usage_(std::move(usage)) {}

  bool next() { return ++i_ < argc_; }
  std::string_view arg() const { return argv_[i_]; }
  bool is(std::string_view flag) const { return arg() == flag; }
  bool is_flag() const { return arg().starts_with("--"); }

  // The current flag's value (the next argument); a usage error if absent.
  const char* value() {
    if (i_ + 1 >= argc_) fail(std::string(arg()) + " needs a value");
    return argv_[++i_];
  }

  // The current argument is not one the tool takes.
  [[noreturn]] void reject() const {
    if (is("--help")) {
      std::fputs(usage_.c_str(), stdout);
      std::exit(0);
    }
    fail((is_flag() ? "unknown flag " : "unexpected argument ") + std::string(arg()));
  }

  [[noreturn]] void fail(const std::string& problem) const {
    const char* slash = std::strrchr(argv_[0], '/');
    std::fprintf(stderr, "%s: %s\n%s", slash != nullptr ? slash + 1 : argv_[0], problem.c_str(),
                 usage_.c_str());
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  std::string usage_;
  int i_ = 0;
};

}  // namespace hoiho::util
