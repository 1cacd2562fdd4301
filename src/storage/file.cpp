#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <map>
#include <mutex>

namespace tc {
namespace {

// ---------------------------------------------------------------------------
// In-memory filesystem
// ---------------------------------------------------------------------------

struct MemInode {
  std::mutex mu;
  Buffer data;
};

class MemFileSystem;

class MemFile final : public File {
 public:
  MemFile(std::shared_ptr<MemInode> inode, DeviceModel* device)
      : inode_(std::move(inode)), device_(device) {}

  Status Read(uint64_t offset, size_t n, uint8_t* buf) override {
    std::lock_guard<std::mutex> lock(inode_->mu);
    if (offset + n > inode_->data.size()) {
      return Status::IOError("mem: read past end of file");
    }
    if (n > 0) std::memcpy(buf, inode_->data.data() + offset, n);  // empty file: null data()
    if (device_ != nullptr) device_->OnRead(n);
    return Status::OK();
  }

  Status Write(uint64_t offset, const uint8_t* buf, size_t n) override {
    std::lock_guard<std::mutex> lock(inode_->mu);
    if (offset + n > inode_->data.size()) inode_->data.resize(offset + n);
    if (n > 0) std::memcpy(inode_->data.data() + offset, buf, n);
    if (device_ != nullptr) device_->OnWrite(n);
    return Status::OK();
  }

  Status Append(const uint8_t* buf, size_t n, uint64_t* offset) override {
    std::lock_guard<std::mutex> lock(inode_->mu);
    *offset = inode_->data.size();
    inode_->data.insert(inode_->data.end(), buf, buf + n);
    if (device_ != nullptr) device_->OnWrite(n);
    return Status::OK();
  }

  uint64_t Size() const override {
    std::lock_guard<std::mutex> lock(inode_->mu);
    return inode_->data.size();
  }

  Status Sync() override { return Status::OK(); }

 private:
  std::shared_ptr<MemInode> inode_;
  DeviceModel* device_;
};

class MemFileSystem final : public FileSystem {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("mem: no such file: " + path);
    return {std::make_unique<MemFile>(it->second, device_.get())};
  }

  Result<std::unique_ptr<File>> Create(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto inode = std::make_shared<MemInode>();
    files_[path] = inode;
    return {std::make_unique<MemFile>(inode, device_.get())};
  }

  Status Delete(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) return Status::NotFound("mem: " + path);
    return Status::OK();
  }

  bool Exists(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) > 0;
  }

  Result<std::vector<std::string>> List(const std::string& dir,
                                        const std::string& prefix) const override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string full = dir.empty() || dir.back() == '/' ? dir : dir + "/";
    std::vector<std::string> names;
    for (const auto& [path, inode] : files_) {
      if (path.rfind(full, 0) != 0) continue;
      std::string name = path.substr(full.size());
      if (name.find('/') != std::string::npos) continue;
      if (name.rfind(prefix, 0) == 0) names.push_back(name);
    }
    return names;
  }

  Status CreateDir(const std::string& /*path*/) override { return Status::OK(); }

  Result<uint64_t> FileSize(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("mem: " + path);
    std::lock_guard<std::mutex> flock(it->second->mu);
    return static_cast<uint64_t>(it->second->data.size());
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<MemInode>> files_;
};

// ---------------------------------------------------------------------------
// POSIX filesystem
// ---------------------------------------------------------------------------

class PosixFile final : public File {
 public:
  PosixFile(int fd, DeviceModel* device) : fd_(fd), device_(device) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, uint8_t* buf) override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, buf + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) return Status::IOError(std::string("pread: ") + std::strerror(errno));
      if (r == 0) return Status::IOError("pread: unexpected EOF");
      done += static_cast<size_t>(r);
    }
    if (device_ != nullptr) device_->OnRead(n);
    return Status::OK();
  }

  Status Write(uint64_t offset, const uint8_t* buf, size_t n) override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pwrite(fd_, buf + done, n - done,
                           static_cast<off_t>(offset + done));
      if (r < 0) return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
      done += static_cast<size_t>(r);
    }
    if (device_ != nullptr) device_->OnWrite(n);
    return Status::OK();
  }

  Status Append(const uint8_t* buf, size_t n, uint64_t* offset) override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError(std::string("fstat: ") + std::strerror(errno));
    }
    *offset = static_cast<uint64_t>(st.st_size);
    return Write(*offset, buf, n);
  }

  uint64_t Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  DeviceModel* device_;
};

class PosixFileSystem final : public FileSystem {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) return Status::NotFound("open " + path + ": " + std::strerror(errno));
    return {std::make_unique<PosixFile>(fd, device_.get())};
  }

  Result<std::unique_ptr<File>> Create(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Status::IOError("create " + path + ": " + std::strerror(errno));
    return {std::make_unique<PosixFile>(fd, device_.get())};
  }

  Status Delete(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError("unlink " + path + ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  bool Exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<std::vector<std::string>> List(const std::string& dir,
                                        const std::string& prefix) const override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return Status::NotFound("opendir " + dir + ": " + std::strerror(errno));
    }
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      if (name.rfind(prefix, 0) == 0) names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + path + ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return Status::NotFound("stat " + path);
    return static_cast<uint64_t>(st.st_size);
  }
};

}  // namespace

std::shared_ptr<FileSystem> MakeMemFileSystem() {
  return std::make_shared<MemFileSystem>();
}

std::shared_ptr<FileSystem> MakePosixFileSystem() {
  return std::make_shared<PosixFileSystem>();
}

}  // namespace tc
