package pipetrace

import (
	"fmt"
	"io"

	"smtavf/internal/jsonlio"
)

// chromeArgs annotates every slice of one uop.
type chromeArgs struct {
	PC   string `json:"pc"`
	Op   string `json:"op"`
	GSeq uint64 `json:"gseq"`
	Seq  uint64 `json:"seq"`
	Fate string `json:"fate"`
	ACE  bool   `json:"ace"`
}

// WriteChrome writes records in the Chrome trace_event JSON object format,
// loadable by chrome://tracing and Perfetto. Each hardware thread is one
// process track (pid = TID); within it, concurrently in-flight uops are
// laid out on lanes (tid) by a greedy interval assignment, and each
// pipeline stage of a uop is one complete ("X") slice: F (front end), Ds
// (IQ wait), Ex (execute), Cm (completed, awaiting retirement). One
// simulated cycle maps to one microsecond of trace time.
func WriteChrome(w io.Writer, recs []Record) error {
	order := fetchOrder(recs)

	tw := jsonlio.NewTraceWriter(w)

	// Process-name metadata, one per hardware thread present.
	seen := map[int]bool{}
	for _, j := range order {
		tid := recs[j].TID
		if seen[tid] {
			continue
		}
		seen[tid] = true
		if err := tw.Emit(jsonlio.TraceEvent{
			Name: "process_name", Ph: "M", Pid: tid,
			Args: map[string]string{"name": fmt.Sprintf("hw thread %d", tid)},
		}); err != nil {
			return err
		}
	}

	// Greedy lane assignment per thread: a uop takes the first lane whose
	// previous occupant retired at or before its fetch cycle. Records are
	// visited in fetch order, so this is the classic interval coloring.
	lanes := map[int][]uint64{} // tid -> per-lane last retire cycle
	for _, j := range order {
		r := &recs[j]
		lane := -1
		ends := lanes[r.TID]
		for i, end := range ends {
			if end <= r.Fetch {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
		}
		ends[lane] = r.Retire
		lanes[r.TID] = ends

		args := chromeArgs{
			PC:   fmt.Sprintf("0x%x", r.PC),
			Op:   r.Op,
			GSeq: r.GSeq,
			Seq:  r.Seq,
			Fate: r.Fate.String(),
			ACE:  r.ACE,
		}
		for _, st := range chromeStages(r) {
			dur := st.end - st.start
			if err := tw.Emit(jsonlio.TraceEvent{
				Name: st.name, Cat: "uop", Ph: "X",
				Ts: st.start, Dur: &dur, Pid: r.TID, Tid: lane, Args: args,
			}); err != nil {
				return err
			}
		}
	}
	return tw.Finish()
}

type chromeStage struct {
	name       string
	start, end uint64
}

// chromeStages slices a record's timeline into stage intervals; stages the
// uop never reached are absent, and the last stage always closes at the
// retire cycle.
func chromeStages(r *Record) []chromeStage {
	bounds := []int64{int64(r.Fetch), r.Dispatch, r.Issue, r.Writeback, int64(r.Retire)}
	names := [4]string{stageFetch, stageDispatch, stageExecute, stageComplete}
	var out []chromeStage
	start := bounds[0]
	name := names[0]
	for i := 1; i < 4; i++ {
		if bounds[i] < 0 {
			continue
		}
		out = append(out, chromeStage{name, uint64(start), uint64(bounds[i])})
		start, name = bounds[i], names[i]
	}
	out = append(out, chromeStage{name, uint64(start), r.Retire})
	return out
}
