package avf

import "fmt"

// Fate is the retrospective reason behind a residency interval's ACE/un-ACE
// classification. The tracker itself only needs the boolean, but provenance
// consumers (the pipeline flight recorder of internal/pipetrace) attribute
// every bit-cycle to the reason it was — or was not — architecturally
// required, which is what turns an AVF number into an actionable signal.
type Fate uint8

// Uop fates, in presentation order. Exactly one fate is ACE.
const (
	// FateCommitted: the uop committed and its result is consumed — every
	// residency bit-cycle is ACE.
	FateCommitted Fate = iota
	// FateDead: the uop committed but its result is never sourced
	// (dynamically dead) — un-ACE.
	FateDead
	// FateNOP: a committed NOP carries no architectural state — un-ACE.
	FateNOP
	// FateWrongPath: fetched down a mispredicted path and squashed — un-ACE.
	FateWrongPath
	// FateSquashed: correct-path work undone by a pipeline squash (e.g. the
	// FLUSH policy) and later refetched — un-ACE.
	FateSquashed
	// NumFates is the number of distinct fates.
	NumFates
)

var fateNames = [NumFates]string{
	"committed", "dead", "nop", "wrong_path", "squashed",
}

func (f Fate) String() string {
	if int(f) < len(fateNames) {
		return fateNames[f]
	}
	return fmt.Sprintf("fate(%d)", uint8(f))
}

// ACE reports whether residency under this fate is architecturally required
// for correct execution.
func (f Fate) ACE() bool { return f == FateCommitted }

// Fates lists every fate in presentation order.
func Fates() []Fate {
	return []Fate{FateCommitted, FateDead, FateNOP, FateWrongPath, FateSquashed}
}

// MarshalText renders the fate name, so JSON records carry "committed"
// rather than an enum ordinal that drifts silently.
func (f Fate) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses a fate name produced by MarshalText.
func (f *Fate) UnmarshalText(b []byte) error {
	for i, n := range fateNames {
		if n == string(b) {
			*f = Fate(i)
			return nil
		}
	}
	return fmt.Errorf("avf: unknown fate %q", b)
}
