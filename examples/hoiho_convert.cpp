// Model format converter: text ↔ ncb, either direction.
//
//   ./build/examples/hoiho_convert IN OUT
//
// The input format is sniffed from the file's magic (same detection the
// serving ModelStore uses), so IN can be a text model written by
// save_conventions or a binary .ncb image; OUT's extension picks the output
// format (".ncb" → binary, anything else → text). Converting a file to its
// own format is a valid way to re-canonicalize it.
//
// Exit status 0 only if the input loaded cleanly AND the written output
// round-trips: the tool reloads what it wrote and compares convention
// counts, so a conversion that drops data fails loudly.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/nc_io.h"
#include "core/ncb.h"
#include "geo/dictionary.h"
#include "util/cli.h"

using namespace hoiho;

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

// Loads a model of either format into StoredConvention records.
bool load_any(const std::string& path, const geo::GeoDictionary& dict,
              std::vector<core::StoredConvention>& out, std::string& format) {
  std::string bytes;
  if (!read_file(path, bytes)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string error;
  std::vector<std::string> warnings;
  if (core::detect_model_format(bytes) == core::ModelFormat::kNcb) {
    format = "ncb";
    const auto model = core::NcbModel::from_bytes(bytes, &error);
    if (model == nullptr) {
      std::fprintf(stderr, "bad ncb model %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    const auto stored = model->to_stored(dict, &error, &warnings);
    if (!stored) {
      std::fprintf(stderr, "ncb model %s did not back-convert: %s\n", path.c_str(),
                   error.c_str());
      return false;
    }
    out = *stored;
  } else {
    format = "text";
    std::istringstream in(bytes);
    const auto stored = core::load_conventions(in, dict, &error, &warnings);
    if (!stored) {
      std::fprintf(stderr, "bad text model %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    out = *stored;
  }
  for (const std::string& w : warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  "usage: hoiho_convert IN OUT   (OUT ending in .ncb → binary, else text)\n");
  std::vector<std::string> paths;
  while (args.next()) {
    if (args.is_flag() || paths.size() == 2) args.reject();
    paths.emplace_back(args.arg());
  }
  if (paths.size() != 2) args.fail("needs IN and OUT");
  const std::string& in_path = paths[0];
  const std::string& out_path = paths[1];
  const geo::GeoDictionary& dict = geo::builtin_dictionary();

  std::vector<core::StoredConvention> stored;
  std::string in_format;
  if (!load_any(in_path, dict, stored, in_format)) return 1;

  std::string error;
  if (!core::save_model_to_file(out_path, stored, dict, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(), error.c_str());
    return 1;
  }

  // Round-trip check: reload what we wrote; a conversion that loses
  // conventions is a failure, not a warning.
  std::vector<core::StoredConvention> reloaded;
  std::string out_format;
  if (!load_any(out_path, dict, reloaded, out_format)) return 1;
  if (reloaded.size() != stored.size()) {
    std::fprintf(stderr, "round-trip lost conventions: wrote %zu, reloaded %zu\n",
                 stored.size(), reloaded.size());
    return 1;
  }

  std::string out_bytes;
  read_file(out_path, out_bytes);
  std::printf("%s (%s) -> %s (%s): %zu conventions, %zu bytes\n", in_path.c_str(),
              in_format.c_str(), out_path.c_str(), out_format.c_str(), stored.size(),
              out_bytes.size());
  return 0;
}
