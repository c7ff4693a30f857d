#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace vmsv {
namespace perfbench {

namespace {

/// The op in flight on this thread (0: none).
thread_local uint64_t t_current_op = 0;

template <typename F>
auto Timed(SpanRecorder* rec, SeamCall call, uint64_t bytes, F&& fn)
    -> decltype(fn()) {
  if (!rec->recording()) return fn();
  const int64_t start = NowNs();
  auto result = fn();
  rec->RecordChild(call, start, NowNs(), bytes);
  return result;
}

}  // namespace

uint64_t SpanRecorder::BeginOp() {
  if (!recording()) return 0;
  const uint64_t id = next_op_.fetch_add(1, std::memory_order_relaxed);
  t_current_op = id;
  if (single_client_) sole_op_.store(id, std::memory_order_release);
  return id;
}

void SpanRecorder::EndOp(uint64_t id, const char* name, int64_t start_ns,
                         int64_t end_ns) {
  if (id == 0) return;
  t_current_op = 0;
  if (single_client_) sole_op_.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(OpSpan{id, name, start_ns, end_ns});
}

void SpanRecorder::RecordChild(SeamCall call, int64_t start_ns, int64_t end_ns,
                               uint64_t bytes) {
  const uint64_t op = t_current_op != 0
                          ? t_current_op
                          : sole_op_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  children_.push_back(ChildSpan{op, call, start_ns, end_ns, bytes});
}

TraceSummary SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSummary s;
  std::unordered_map<uint64_t, std::vector<ChildSpan>> by_op;
  for (const ChildSpan& c : children_) {
    const size_t k = static_cast<size_t>(c.call);
    ++s.calls[k];
    s.call_ns[k] += c.end_ns - c.start_ns;
    if (c.call == SeamCall::kWrite || c.call == SeamCall::kPwrite) {
      s.storage_bytes += c.bytes;
    }
    by_op[c.op].push_back(c);
  }
  for (const OpSpan& op : ops_) {
    auto it = by_op.find(op.id);
    const LayerTimes t =
        AttributeOp(op, it == by_op.end() ? std::vector<ChildSpan>{} : it->second);
    if (it != by_op.end()) by_op.erase(it);
    ++s.ops;
    s.self_ns += t.self_ns;
    s.rewiring_ns += t.rewiring_ns;
    s.storage_ns += t.storage_ns;
  }
  for (const auto& [op, children] : by_op) {
    for (const ChildSpan& c : children) s.unattributed_ns += c.end_ns - c.start_ns;
  }
  return s;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const OpSpan& op : ops_) {
    std::fprintf(out,
                 "{\"op\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(op.id), op.name,
                 static_cast<long long>(op.start_ns),
                 static_cast<long long>(op.end_ns));
  }
  for (const ChildSpan& c : children_) {
    std::fprintf(out,
                 "{\"parent\": %llu, \"layer\": \"%s\", \"call\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"bytes\": %llu}\n",
                 static_cast<unsigned long long>(c.op),
                 IsStorageCall(c.call) ? "storage" : "rewiring",
                 SeamCallName(c.call), static_cast<long long>(c.start_ns),
                 static_cast<long long>(c.end_ns),
                 static_cast<unsigned long long>(c.bytes));
  }
  return std::fclose(out) == 0;
}

StatusOr<void*> TracingVmIo::Mmap(void* addr, size_t len, int prot, int flags,
                                  int fd, off_t offset, const char* what) {
  return Timed(rec_, SeamCall::kMmap, 0, [&] {
    return inner_->Mmap(addr, len, prot, flags, fd, offset, what);
  });
}

Status TracingVmIo::Munmap(void* addr, size_t len, const char* what) {
  return Timed(rec_, SeamCall::kMunmap, 0,
               [&] { return inner_->Munmap(addr, len, what); });
}

StatusOr<void*> TracingVmIo::Mremap(void* old_addr, size_t old_len,
                                    size_t new_len, int flags, void* new_addr,
                                    const char* what) {
  return Timed(rec_, SeamCall::kMremap, 0, [&] {
    return inner_->Mremap(old_addr, old_len, new_len, flags, new_addr, what);
  });
}

Status TracingVmIo::Mprotect(void* addr, size_t len, int prot,
                             const char* what) {
  return Timed(rec_, SeamCall::kMprotect, 0,
               [&] { return inner_->Mprotect(addr, len, prot, what); });
}

Status TracingVmIo::Madvise(void* addr, size_t len, int advice,
                            const char* what) {
  return Timed(rec_, SeamCall::kMadvise, 0,
               [&] { return inner_->Madvise(addr, len, advice, what); });
}

StatusOr<int> TracingVmIo::MemfdCreate(const char* name, unsigned int flags) {
  return Timed(rec_, SeamCall::kMemfdCreate, 0,
               [&] { return inner_->MemfdCreate(name, flags); });
}

Status TracingVmIo::Ftruncate(int fd, uint64_t len, const char* what) {
  return Timed(rec_, SeamCall::kFtruncate, 0,
               [&] { return inner_->Ftruncate(fd, len, what); });
}

Status TracingStorageIo::Write(int fd, const void* data, size_t len,
                               const char* what) {
  return Timed(rec_, SeamCall::kWrite, len,
               [&] { return inner_->Write(fd, data, len, what); });
}

Status TracingStorageIo::Pwrite(int fd, const void* data, size_t len,
                                uint64_t offset, const char* what) {
  return Timed(rec_, SeamCall::kPwrite, len,
               [&] { return inner_->Pwrite(fd, data, len, offset, what); });
}

Status TracingStorageIo::Fsync(int fd, const char* what) {
  return Timed(rec_, SeamCall::kFsync, 0,
               [&] { return inner_->Fsync(fd, what); });
}

Status TracingStorageIo::FsyncDir(const std::string& dir) {
  return Timed(rec_, SeamCall::kFsyncDir, 0,
               [&] { return inner_->FsyncDir(dir); });
}

Status TracingStorageIo::Rename(const std::string& from, const std::string& to) {
  return Timed(rec_, SeamCall::kRename, 0,
               [&] { return inner_->Rename(from, to); });
}

Status TracingStorageIo::Truncate(int fd, uint64_t len, const char* what) {
  return Timed(rec_, SeamCall::kTruncate, 0,
               [&] { return inner_->Truncate(fd, len, what); });
}

Status TracingStorageIo::SyncFileRange(int fd, const char* what) {
  return Timed(rec_, SeamCall::kSyncFileRange, 0,
               [&] { return inner_->SyncFileRange(fd, what); });
}

}  // namespace perfbench
}  // namespace vmsv
