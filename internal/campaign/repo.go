package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Repo is the durable result repository: one directory per campaign,
// organized by submission date —
//
//	<dir>/<yyyy-mm-dd>/<campaign-id>/manifest.json
//	<dir>/<yyyy-mm-dd>/<campaign-id>/run-<member>.json
//
// Every write is atomic (temp file + rename, same idiom as the fleet
// journal), and run files hold the report bytes verbatim — the file IS
// the report, so `cat` and `jq` work directly and a byte-comparison
// against an in-process run needs no re-encoding. A campaign member is
// "done" exactly when its run file exists, which is the whole resume
// protocol: a restarted daemon re-runs only the members without files.
//
// With an empty dir the repo degrades to memory-only: campaigns still
// work, nothing survives a restart.
type Repo struct {
	dir string

	mu  sync.Mutex
	mem map[string]map[int]json.RawMessage // memory mode: campaign ID → member → report

	persisted int64
	loaded    int64
}

// NewRepo opens (creating if needed) the results tree rooted at dir; an
// empty dir selects memory-only mode.
func NewRepo(dir string) (*Repo, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: results dir: %w", err)
		}
	}
	return &Repo{dir: dir, mem: map[string]map[int]json.RawMessage{}}, nil
}

// campaignDir is <dir>/<yyyy-mm-dd>/<id>, dated by the campaign's
// creation time (UTC) so a long-running tree stays browsable by day.
func (r *Repo) campaignDir(man *Manifest) string {
	return filepath.Join(r.dir, man.Created.UTC().Format("2006-01-02"), man.ID)
}

func runFile(member int) string { return fmt.Sprintf("run-%d.json", member) }

// writeAtomic lands data at path via a same-directory temp file +
// rename, creating parents as needed.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// SaveManifest persists the campaign's identity and member table
// (called at admission and whenever job assignments or the canceled
// flag change). Compact encoding: the embedded scenario bytes must
// round-trip untouched.
func (r *Repo) SaveManifest(man *Manifest) error {
	if r.dir == "" {
		return nil
	}
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("campaign: marshal manifest %s: %w", man.ID, err)
	}
	if err := writeAtomic(filepath.Join(r.campaignDir(man), "manifest.json"), data); err != nil {
		return fmt.Errorf("campaign: save manifest %s: %w", man.ID, err)
	}
	return nil
}

// SaveResult persists one member's report bytes verbatim. Saving is
// idempotent; the persisted counter counts actual writes.
func (r *Repo) SaveResult(man *Manifest, member int, report json.RawMessage) error {
	if r.dir == "" {
		r.mu.Lock()
		if r.mem[man.ID] == nil {
			r.mem[man.ID] = map[int]json.RawMessage{}
		}
		r.mem[man.ID][member] = report
		r.persisted++
		r.mu.Unlock()
		return nil
	}
	if err := writeAtomic(filepath.Join(r.campaignDir(man), runFile(member)), report); err != nil {
		return fmt.Errorf("campaign: save result %s/%d: %w", man.ID, member, err)
	}
	r.mu.Lock()
	r.persisted++
	r.mu.Unlock()
	return nil
}

// LoadResult reads one member's persisted report bytes.
func (r *Repo) LoadResult(man *Manifest, member int) (json.RawMessage, error) {
	if r.dir == "" {
		r.mu.Lock()
		defer r.mu.Unlock()
		rep, ok := r.mem[man.ID][member]
		if !ok {
			return nil, fmt.Errorf("campaign: no result for %s/%d", man.ID, member)
		}
		return rep, nil
	}
	data, err := os.ReadFile(filepath.Join(r.campaignDir(man), runFile(member)))
	if err != nil {
		return nil, fmt.Errorf("campaign: load result %s/%d: %w", man.ID, member, err)
	}
	return data, nil
}

// Load recovers every campaign in the tree: the manifests (oldest
// first) and, per campaign, the set of member indices whose run files
// already exist — those members are done and must not be re-executed.
// Corrupt manifests are skipped, not fatal, matching the fleet
// journal's torn-write posture.
func (r *Repo) Load() ([]*Manifest, map[string]map[int]bool, error) {
	if r.dir == "" {
		return nil, nil, nil
	}
	var mans []*Manifest
	done := map[string]map[int]bool{}
	days, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: read results dir: %w", err)
	}
	var loaded int64
	for _, day := range days {
		if !day.IsDir() {
			continue
		}
		dayDir := filepath.Join(r.dir, day.Name())
		camps, err := os.ReadDir(dayDir)
		if err != nil {
			continue
		}
		for _, c := range camps {
			if !c.IsDir() {
				continue
			}
			cdir := filepath.Join(dayDir, c.Name())
			data, err := os.ReadFile(filepath.Join(cdir, "manifest.json"))
			if err != nil {
				continue
			}
			var man Manifest
			if err := json.Unmarshal(data, &man); err != nil || man.ID == "" {
				continue
			}
			mans = append(mans, &man)
			set := map[int]bool{}
			files, _ := os.ReadDir(cdir)
			for _, f := range files {
				name := f.Name()
				if !strings.HasPrefix(name, "run-") || !strings.HasSuffix(name, ".json") {
					continue
				}
				idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "run-"), ".json"))
				if err != nil || idx < 0 || idx >= len(man.Members) {
					continue
				}
				set[idx] = true
				loaded++
			}
			done[man.ID] = set
		}
	}
	sort.Slice(mans, func(i, k int) bool { return mans[i].Created.Before(mans[k].Created) })
	r.mu.Lock()
	r.loaded += loaded
	r.mu.Unlock()
	return mans, done, nil
}

// Counters returns the lifetime persisted/loaded result counts.
func (r *Repo) Counters() (persisted, loaded int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persisted, r.loaded
}
