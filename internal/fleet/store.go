package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// store is the queue's durable journal: one JSON file per job under the
// state directory, written atomically (temp file + rename) on every
// lifecycle transition and read back on daemon restart. A terminal
// job's file goes when the queue evicts the job (QueueConfig.Retain).
type store struct {
	dir string
}

func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: state dir: %w", err)
	}
	return &store{dir: dir}, nil
}

func (s *store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// save journals one job atomically. The temp file lives in the same
// directory so the rename never crosses filesystems. The encoding is
// compact json.Marshal, NOT indented: indentation would rewrite the
// embedded RawMessage scenario/report bytes, and those must round-trip
// byte-identically through a restart.
func (s *store) save(j *Job) error {
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("fleet: marshal job %s: %w", j.ID, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".job-*.tmp")
	if err != nil {
		return fmt.Errorf("fleet: journal job %s: %w", j.ID, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: journal job %s: %w", j.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: journal job %s: %w", j.ID, err)
	}
	if err := os.Rename(tmp.Name(), s.path(j.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: journal job %s: %w", j.ID, err)
	}
	return nil
}

// remove deletes one job's file; a missing file is not an error.
func (s *store) remove(id string) {
	_ = os.Remove(s.path(id))
}

// load reads every journaled job back, oldest first. Corrupt files are
// skipped (and reported in the second return) rather than failing the
// recovery — a torn write must not take the whole queue down.
func (s *store) load() ([]*Job, []string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: read state dir: %w", err)
	}
	var jobs []*Job
	var corrupt []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			corrupt = append(corrupt, name)
			continue
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
			corrupt = append(corrupt, name)
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	return jobs, corrupt, nil
}
