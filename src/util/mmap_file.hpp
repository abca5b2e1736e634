// Read-only file mapping for the zero-parse binary instance loader.
//
// On POSIX the whole file is mmap()ed PROT_READ/MAP_PRIVATE, so loading a
// multi-gigabyte instance costs page-table setup plus the pages actually
// touched; elsewhere the file is slurped into an 8-byte-aligned heap buffer
// (same interface, no laziness).  The loader copies what it needs out of
// the mapping, so a MappedFile lives only as long as the load.
//
// Reads are not routed through util::IoEnv: the fault-injection surface
// (io_env.hpp) covers durable *writes*; loaders validate what they read via
// CRCs instead (core/instance_format.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace accu::util {

class MappedFile {
 public:
  /// Maps `path` read-only.  Throws IoError when the file cannot be opened,
  /// stat'ed, or mapped.  An empty file maps to data() == nullptr, size 0.
  [[nodiscard]] static std::unique_ptr<const MappedFile> open(
      const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when backed by a real mmap (false for the heap fallback).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

 private:
  MappedFile() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;             // munmap handle (POSIX)
  std::vector<std::uint64_t> fallback_;  // 8-byte-aligned heap copy
};

}  // namespace accu::util
