// acheron-check fixture: sync-before-install, must PASS.
//
// The table-output shape: a helper object's Open() creates the table file
// (NewWritableFile on a TableFileName it builds itself) and its Finish()
// Syncs it; the caller holds the helper by value and installs the version
// edit via LogAndApply only after Finish. Open/Finish share their names
// with another class, so the calls resolve through the local's type.

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

class VersionSetStub {
 public:
  Status LogAndApply(int edit);
};

class Table {
 public:
  Status Open() { return Status::OK(); }
  Status Finish() { return Status::OK(); }
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

class Flusher {
 public:
  Status FlushTable() {
    TableOutput out;
    Status s = out.Open(7);
    if (s.ok()) {
      s = out.Finish();
    }
    if (s.ok()) {
      s = versions_->LogAndApply(0);
    }
    return s;
  }

 private:
  VersionSetStub* versions_ = nullptr;
};
