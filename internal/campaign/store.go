package campaign

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smtavf/internal/jsonlio"
)

// Store persists campaigns for the service: one directory per campaign
// holding the expanded points (campaign.json), the appended per-point
// results (results.jsonl), and a cancellation marker. The layout is the
// resume substrate — a restarted server reloads every campaign and
// re-enqueues exactly the points with no persisted result.
type Store struct {
	dir string
}

// storedCampaign is the on-disk campaign header. Points are stored
// pre-expanded so a resume re-runs exactly what was submitted, even if a
// later version changes Matrix expansion order.
type storedCampaign struct {
	V      int       `json:"v"`
	ID     string    `json:"id"`
	Name   string    `json:"name,omitempty"`
	Issued time.Time `json:"issued"`
	Points []Spec    `json:"points"`
}

// NewStore opens (creating if needed) a campaign store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("campaign: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (st *Store) Dir() string { return st.dir }

func (st *Store) campaignDir(id string) string { return filepath.Join(st.dir, id) }

// NewID mints a campaign ID: sortable timestamp plus a random suffix so
// concurrent submissions never collide.
func NewID(now time.Time) string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the nanosecond clock; IDs stay unique enough for
		// one store because the timestamp prefix differs.
		return now.UTC().Format("20060102T150405") + "-" + fmt.Sprintf("%08x", now.UnixNano()&0xffffffff)
	}
	return now.UTC().Format("20060102T150405") + "-" + hex.EncodeToString(b[:])
}

// Create persists a new campaign with its expanded points and returns
// its ID.
func (st *Store) Create(id, name string, now time.Time, points []Spec) error {
	dir := st.campaignDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sc := storedCampaign{V: SpecVersion, ID: id, Name: name, Issued: now.UTC(), Points: points}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "campaign.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "campaign.json"))
}

// AppendResult durably records one executed point.
func (st *Store) AppendResult(id string, res *Result) error {
	return jsonlio.AppendLine(filepath.Join(st.campaignDir(id), "results.jsonl"), res)
}

// MarkCancelled drops the cancellation marker; it survives restarts, so
// a cancelled campaign is not resumed.
func (st *Store) MarkCancelled(id string) error {
	return os.WriteFile(filepath.Join(st.campaignDir(id), "cancel"), []byte("cancelled\n"), 0o644)
}

// Cancelled reports whether the campaign carries a cancellation marker.
func (st *Store) Cancelled(id string) bool {
	_, err := os.Stat(filepath.Join(st.campaignDir(id), "cancel"))
	return err == nil
}

// LoadedCampaign is a campaign read back from the store.
type LoadedCampaign struct {
	ID        string
	Name      string
	Issued    time.Time
	Points    []Spec
	Results   map[int]*Result // by point index; completed points only
	Cancelled bool
}

// Load reads one campaign back, tolerantly: a results.jsonl whose final
// line was truncated by a kill mid-append loses only that line — the
// point simply re-runs on resume.
func (st *Store) Load(id string) (*LoadedCampaign, error) {
	dir := st.campaignDir(id)
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return nil, err
	}
	var sc storedCampaign
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", id, err)
	}
	if sc.V != 0 && sc.V != SpecVersion {
		return nil, fmt.Errorf("campaign %s: schema v%d is not supported (want v%d)", id, sc.V, SpecVersion)
	}
	lc := &LoadedCampaign{
		ID:        id,
		Name:      sc.Name,
		Issued:    sc.Issued,
		Points:    sc.Points,
		Results:   make(map[int]*Result),
		Cancelled: st.Cancelled(id),
	}
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if errors.Is(err, fs.ErrNotExist) {
		return lc, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc2 := bufio.NewScanner(f)
	// No initial buffer: the scanner starts at 4 KiB and doubles toward
	// the 64 MiB line cap only for a line that needs it, so a resume
	// allocates in proportion to the bytes the store holds.
	sc2.Buffer(nil, 1<<26)
	for sc2.Scan() {
		line := sc2.Bytes()
		if len(line) == 0 {
			continue
		}
		res := new(Result)
		if err := json.Unmarshal(line, res); err != nil {
			continue // truncated or corrupt line: the point re-runs
		}
		if res.Point < 0 || res.Point >= len(lc.Points) {
			continue
		}
		if _, dup := lc.Results[res.Point]; dup {
			continue // keep-first: the first durable result wins
		}
		lc.Results[res.Point] = res
	}
	if err := sc2.Err(); err != nil {
		return nil, err
	}
	return lc, nil
}

// List returns every stored campaign ID, oldest first (IDs sort by their
// timestamp prefix).
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(st.dir, e.Name(), "campaign.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
