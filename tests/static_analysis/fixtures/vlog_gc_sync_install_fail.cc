// acheron-check fixture: sync-before-install, must FAIL.
//
// The vLog-GC shape with the table Sync missing: the rewritten table's
// helper only Closes it, and the Sync between the rewrite and LogAndApply
// belongs to the relocation segment, another file. A Sync clears only the
// output it is called on, so the torn table is still reported.

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
    return file_->Close();  // closed but never synced
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
      s = reloc->Sync();  // syncs the segment, not the table
    }
    if (s.ok()) {
      s = versions_->LogAndApply(0);  // installs a possibly-torn table
    }
    return s;
  }

 private:
  Env* env_ = nullptr;
  VersionSetStub* versions_ = nullptr;
};
