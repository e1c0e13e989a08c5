package inject

import (
	"fmt"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/rng"
)

// mapCampaign is the reference booking the difference-encoded grid must
// reproduce: a map of per-sample cells, into which Interval adds its bits
// at every sample cycle it covers, one step per sample. It draws its phase
// and strikes from the same seeded stream as Campaign.
type mapCampaign struct {
	every, phase, origin uint64
	bits                 [avf.NumStructs]uint64
	protection           [avf.NumStructs]Detection
	cells                [avf.NumStructs]map[uint64]*mapCell
	rnd                  *rng.Source
	events               uint64
}

type mapCell struct {
	occ, ace  uint64
	perThread []uint64
}

func newMapCampaign(bits [avf.NumStructs]uint64, every, seed uint64) *mapCampaign {
	m := &mapCampaign{every: every, bits: bits, rnd: rng.New(seed)}
	m.phase = m.rnd.Uint64n(every)
	m.Rebase(0)
	return m
}

func (m *mapCampaign) Rebase(cycle uint64) {
	m.origin = cycle
	for s := range m.cells {
		m.cells[s] = make(map[uint64]*mapCell)
	}
}

func (m *mapCampaign) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	if start < m.origin {
		start = m.origin
	}
	if end <= start {
		return
	}
	start -= m.origin
	end -= m.origin
	m.events++
	var idx uint64
	if start > m.phase {
		idx = (start - m.phase + m.every - 1) / m.every
	}
	for cyc := m.phase + idx*m.every; cyc < end; cyc += m.every {
		cl := m.cells[s][idx]
		if cl == nil {
			cl = &mapCell{}
			m.cells[s][idx] = cl
		}
		cl.occ += bits
		if ace {
			cl.ace += bits
			for len(cl.perThread) <= tid {
				cl.perThread = append(cl.perThread, 0)
			}
			cl.perThread[tid] += bits
		}
		idx++
	}
}

func (m *mapCampaign) samples(cycles uint64) uint64 {
	if cycles <= m.phase {
		return 0
	}
	return (cycles-m.phase-1)/m.every + 1
}

// mean returns the per-sample mean of field over a run of 'cycles' cycles,
// as a fraction of capacity.
func (m *mapCampaign) mean(s avf.Struct, cycles uint64, field func(*mapCell) uint64) float64 {
	n := m.samples(cycles)
	if n == 0 || m.bits[s] == 0 {
		return 0
	}
	var sum uint64
	for idx, cl := range m.cells[s] {
		if idx < n {
			sum += field(cl)
		}
	}
	return float64(sum) / (float64(n) * float64(m.bits[s]))
}

func (m *mapCampaign) Overbooked(s avf.Struct) int {
	n := 0
	for _, cl := range m.cells[s] {
		if cl.occ > m.bits[s] {
			n++
		}
	}
	return n
}

func (m *mapCampaign) SampleStrikes(s avf.Struct, cycles uint64, n int) []Strike {
	samples := m.samples(cycles)
	if samples == 0 || m.bits[s] == 0 || n <= 0 {
		return nil
	}
	var out []Strike
	for i := 0; i < n; i++ {
		idx := m.rnd.Uint64n(samples)
		bit := m.rnd.Uint64n(m.bits[s])
		st := Strike{Struct: s, SampleIdx: idx, Cycle: m.origin + m.phase + idx*m.every,
			Bit: bit, TID: -1, Outcome: Masked}
		if cl := m.cells[s][idx]; cl != nil && bit < cl.ace {
			tid := 0
			for _, share := range cl.perThread {
				if bit < share {
					break
				}
				bit -= share
				tid++
			}
			st.TID, st.ThreadBit, st.Outcome = tid, bit, m.protection[s].outcome()
		}
		out = append(out, st)
	}
	return out
}

// TestGridMatchesMapBooking drives the grid and the map-of-cells reference
// with the same seeded random scripts — every structure, thread ids 0–7,
// starts before the origin, empty and inverted intervals, rebases mid
// script, and reads interleaved with further bookings — and requires
// identical estimates, occupancies, overbooking counts, event counts and
// strike records throughout.
func TestGridMatchesMapBooking(t *testing.T) {
	for _, every := range []uint64{1, 2, 3, 7, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("every=%d/seed=%d", every, seed), func(t *testing.T) {
				script := rng.New(1000*every + seed)
				var bits [avf.NumStructs]uint64
				for s := range bits {
					if script.Uint64n(10) > 0 { // some structures have no capacity
						bits[s] = 1 + script.Uint64n(4000)
					}
				}
				c, err := NewCampaign(bits, every, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := newMapCampaign(bits, every, seed)
				var prot [avf.NumStructs]Detection
				for s := range prot {
					prot[s] = Detection(script.Uint64n(3))
				}
				c.SetProtection(prot)
				ref.protection = prot

				const horizon = 4000
				origin := uint64(0)
				for op := 0; op < 1500; op++ {
					s := avf.Struct(script.Uint64n(uint64(avf.NumStructs)))
					switch k := script.Uint64n(100); {
					case k < 80: // book an interval
						tid := int(script.Uint64n(8))
						b := script.Uint64n(600)
						// Starts up to horizon/8 before the origin get clipped.
						start := origin - min(origin, horizon/8) + script.Uint64n(horizon)
						var end uint64
						switch script.Uint64n(10) {
						case 0:
							end = start // empty
						case 1:
							end = start - script.Uint64n(start+1) // inverted (or empty)
						default:
							end = start + 1 + script.Uint64n(horizon/4)
						}
						ace := script.Uint64n(3) > 0
						c.Interval(s, tid, b, start, end, ace)
						ref.Interval(s, tid, b, start, end, ace)
					case k < 82: // rebase, dropping everything booked so far
						origin += script.Uint64n(horizon / 4)
						c.Rebase(origin)
						ref.Rebase(origin)
					default: // read, then keep booking
						compareCampaigns(t, c, ref, s, script.Uint64n(horizon+every))
					}
				}
				for s := avf.Struct(0); s < avf.NumStructs; s++ {
					compareCampaigns(t, c, ref, s, horizon)
				}
			})
		}
	}
}

// compareCampaigns checks every read of structure s over a run of
// 'cycles' cycles, drawing a few strikes from both streams.
func compareCampaigns(t *testing.T, c *Campaign, ref *mapCampaign, s avf.Struct, cycles uint64) {
	t.Helper()
	if got, want := c.Events(), ref.events; got != want {
		t.Fatalf("Events = %d, reference %d", got, want)
	}
	if got, want := c.Estimate(s, cycles), ref.mean(s, cycles, func(cl *mapCell) uint64 { return cl.ace }); got != want {
		t.Fatalf("Estimate(%v, %d) = %v, reference %v", s, cycles, got, want)
	}
	if got, want := c.Occupancy(s, cycles), ref.mean(s, cycles, func(cl *mapCell) uint64 { return cl.occ }); got != want {
		t.Fatalf("Occupancy(%v, %d) = %v, reference %v", s, cycles, got, want)
	}
	if got, want := c.Overbooked(s), ref.Overbooked(s); got != want {
		t.Fatalf("Overbooked(%v) = %d, reference %d", s, got, want)
	}
	got, want := c.SampleStrikes(s, cycles, 16), ref.SampleStrikes(s, cycles, 16)
	if len(got) != len(want) {
		t.Fatalf("SampleStrikes(%v, %d) drew %d strikes, reference %d", s, cycles, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SampleStrikes(%v, %d)[%d] = %+v, reference %+v", s, cycles, i, got[i], want[i])
		}
	}
}
