package pipetrace

import (
	"fmt"
	"io"
	"strings"

	"smtavf/internal/jsonlio"
)

// WriteJSONL writes one Record as one JSON object per line, in retirement
// order — the compact machine-readable export, ready for jq. Every line
// carries the schema version ("v").
func WriteJSONL(w io.Writer, recs []Record) error {
	return jsonlio.WriteLines(w, recs)
}

// ReadJSONL decodes a JSONL recording produced by WriteJSONL; it rejects
// records from a different schema version.
func ReadJSONL(r io.Reader) ([]Record, error) {
	return jsonlio.ReadLines(r, func(rec *Record) error {
		if rec.V != SchemaVersion {
			return fmt.Errorf("pipetrace: record schema v%d, this build reads v%d", rec.V, SchemaVersion)
		}
		return nil
	})
}

// Format names a flight-recording export format.
type Format string

// Export formats.
const (
	FormatKanata Format = "kanata"
	FormatChrome Format = "chrome"
	FormatJSONL  Format = "jsonl"
)

// FormatForPath picks the export format from a file name: ".kanata" (or
// ".kan") selects Kanata, ".json" Chrome trace_event, anything else JSONL.
// A trailing ".gz" is ignored (the file is written gzip-compressed).
func FormatForPath(path string) Format {
	name := strings.TrimSuffix(strings.ToLower(path), ".gz")
	switch {
	case strings.HasSuffix(name, ".kanata") || strings.HasSuffix(name, ".kan"):
		return FormatKanata
	case strings.HasSuffix(name, ".json"):
		return FormatChrome
	default:
		return FormatJSONL
	}
}

// Write writes the records in the given format.
func Write(w io.Writer, f Format, recs []Record) error {
	switch f {
	case FormatKanata:
		return WriteKanata(w, recs)
	case FormatChrome:
		return WriteChrome(w, recs)
	case FormatJSONL:
		return WriteJSONL(w, recs)
	}
	return fmt.Errorf("pipetrace: unknown format %q", f)
}

// WriteFile exports the retained records to path. An empty format picks
// one from the extension (FormatForPath); a ".gz" suffix gzip-compresses
// the output (jsonlio.OpenWriter, shared with the telemetry exporters —
// flight recordings are large). A provenance-only recorder has nothing to
// export: WriteFile returns an error and creates no file.
func (r *Recorder) WriteFile(path string, f Format) error {
	if r != nil && r.opt.ProvenanceOnly {
		return fmt.Errorf("pipetrace: %s: a provenance-only recorder keeps no records", path)
	}
	if f == "" {
		f = FormatForPath(path)
	}
	w, err := jsonlio.OpenWriter(path)
	if err != nil {
		return err
	}
	if err := Write(w, f, r.Records()); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
