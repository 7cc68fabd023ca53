#include "util/text_cursor.h"

#include <filesystem>
#include <fstream>

namespace simgraph {

StatusOr<std::string> ReadTextFile(const std::string& path) {
  // file_size fails for anything but a regular file.
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status::IoError("cannot open for reading: " + path);
  std::string text(static_cast<size_t>(bytes), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (in.gcount() != static_cast<std::streamsize>(text.size())) {
    return Status::IoError("short read: " + path);
  }
  return text;
}

}  // namespace simgraph
