#include "util/mmap_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"
#include "util/io_env.hpp"  // for ACCU_HAVE_POSIX_IO

#ifdef ACCU_HAVE_POSIX_IO
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace accu::util {

namespace {

[[noreturn]] void map_fail(const std::string& what, const std::string& path) {
  throw IoError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::unique_ptr<const MappedFile> MappedFile::open(const std::string& path) {
  auto file = std::unique_ptr<MappedFile>(new MappedFile());
#ifdef ACCU_HAVE_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) map_fail("cannot open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    map_fail("cannot stat", path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return file;
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int saved = errno;
  ::close(fd);
  if (base == MAP_FAILED) {
    errno = saved;
    map_fail("cannot mmap", path);
  }
  file->map_base_ = base;
  file->data_ = static_cast<const std::byte*>(base);
  file->size_ = size;
  file->mapped_ = true;
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) map_fail("cannot open", path);
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    map_fail("cannot stat", path);
  }
  std::rewind(f);
  const auto size = static_cast<std::size_t>(end);
  file->fallback_.resize((size + 7) / 8);
  const std::size_t got =
      size == 0 ? 0 : std::fread(file->fallback_.data(), 1, size, f);
  std::fclose(f);
  if (got != size) map_fail("cannot read", path);
  file->data_ = reinterpret_cast<const std::byte*>(file->fallback_.data());
  file->size_ = size;
#endif
  return file;
}

MappedFile::~MappedFile() {
#ifdef ACCU_HAVE_POSIX_IO
  if (map_base_ != nullptr) ::munmap(map_base_, size_);
#endif
}

}  // namespace accu::util
