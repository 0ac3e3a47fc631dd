// acheron-check fixture: sync-before-install, must FAIL.
//
// The table-output shape with the Sync missing: the helper's Open()
// creates the table file and its Finish() only Closes it, so the caller's
// LogAndApply can install a table whose bytes are not durable. The helper
// is held by value and its method names are shared with another class, so
// only resolution through the local's type finds the create.

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
    return file_->Close();  // closed but never synced
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
      s = versions_->LogAndApply(0);  // installs a possibly-torn table
    }
    return s;
  }

 private:
  VersionSetStub* versions_ = nullptr;
};
