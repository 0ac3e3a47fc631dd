// acheron-check fixture: sync-before-install, must PASS.
//
// The vLog-GC shape: a relocation segment is created and moved into a
// writer, each rewritten table is built by a helper whose Finish() Syncs
// it, and the relocation writer is synced before the LogAndApply that
// installs both. Every output is synced through the object that holds it.

namespace std {
template <class T>
T&& move(T& t);
}  // namespace std

struct Status {
  static Status OK();
  bool ok() const;
};

struct WritableFile {
  Status Sync();
  Status Close();
};

struct Env {
  Status NewWritableFile(const char* fname, WritableFile** file);
};

const char* TableFileName(int number);
const char* VlogFileName(int number);

class VersionSetStub {
 public:
  Status LogAndApply(int edit);
};

class SegmentWriter {
 public:
  explicit SegmentWriter(WritableFile* file) : file_(file) {}
  Status Sync() { return file_->Sync(); }

 private:
  WritableFile* file_;
};

class TableOutput {
 public:
  Status Open(int number) {
    return env_->NewWritableFile(TableFileName(number), &file_);
  }
  Status Finish() {
    Status s = file_->Sync();  // durable before any caller installs it
    if (s.ok()) {
      s = file_->Close();
    }
    return s;
  }

 private:
  Env* env_ = nullptr;
  WritableFile* file_ = nullptr;
};

class VlogGc {
 public:
  Status RewriteTable(int number) {
    TableOutput out;
    Status s = out.Open(number);
    if (s.ok()) {
      s = out.Finish();
    }
    return s;
  }

  Status CollectSegment() {
    WritableFile* file = nullptr;
    Status s = env_->NewWritableFile(VlogFileName(11), &file);
    SegmentWriter* reloc = nullptr;
    if (s.ok()) {
      reloc = new SegmentWriter(std::move(file));
    }
    if (s.ok()) {
      s = RewriteTable(12);
    }
    if (s.ok()) {
      s = reloc->Sync();  // the relocated values are durable
    }
    if (s.ok()) {
      s = versions_->LogAndApply(0);
    }
    return s;
  }

 private:
  Env* env_ = nullptr;
  VersionSetStub* versions_ = nullptr;
};
