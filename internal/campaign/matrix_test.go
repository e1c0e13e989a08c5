package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"smtavf/internal/core"
)

func TestMatrixPoints(t *testing.T) {
	m := Matrix{
		Base:     Spec{Benchmarks: []string{"gcc", "mcf"}, Instructions: 1000},
		Policies: []string{"ICOUNT", "STALL"},
		Seeds:    []uint64{1, 2, 3},
	}
	points, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	// Deterministic: a second expansion is identical.
	again, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Fatal("expansion is not deterministic")
	}
	// Policies outermost-but-one, seeds innermost.
	if points[0].Policy != "ICOUNT" || points[0].Seed != 1 {
		t.Errorf("point 0 = %s/%d", points[0].Policy, points[0].Seed)
	}
	if points[2].Policy != "ICOUNT" || points[2].Seed != 3 {
		t.Errorf("point 2 = %s/%d", points[2].Policy, points[2].Seed)
	}
	if points[3].Policy != "STALL" || points[3].Seed != 1 {
		t.Errorf("point 3 = %s/%d", points[3].Policy, points[3].Seed)
	}
	// Every point inherits the base and is labelled by the varying axes.
	for i, p := range points {
		if p.Instructions != 1000 {
			t.Errorf("point %d lost the base budget", i)
		}
		want := p.PolicyName() + "/seed" + string(rune('0'+p.Seed))
		if p.Name != want {
			t.Errorf("point %d name = %q, want %q", i, p.Name, want)
		}
	}
}

func TestMatrixSinglePoint(t *testing.T) {
	points, err := Matrix{Base: Spec{Mix: "2ctx-CPU-A"}}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	if points[0].Name != "2ctx-CPU-A" {
		t.Errorf("singleton name = %q", points[0].Name)
	}
}

func TestMatrixMixAxisReplacesSource(t *testing.T) {
	m := Matrix{
		Base:  Spec{Benchmarks: []string{"gcc"}},
		Mixes: []string{"2ctx-CPU-A", "2ctx-MEM-A"},
	}
	points, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if len(p.Benchmarks) != 0 {
			t.Errorf("mix axis left base benchmarks on %q", p.Name)
		}
	}
	if points[0].Mix != "2ctx-CPU-A" || points[1].Mix != "2ctx-MEM-A" {
		t.Errorf("mix order: %q, %q", points[0].Mix, points[1].Mix)
	}
}

func TestMatrixRejectsInvalidPoint(t *testing.T) {
	if _, err := (Matrix{Base: Spec{}}).Points(); err == nil {
		t.Fatal("sourceless base expanded without error")
	}
	if _, err := (Matrix{V: 2, Base: Spec{Mix: "2ctx-CPU-A"}}).Points(); err == nil {
		t.Fatal("unsupported version expanded without error")
	}
}

func TestMatrixPointCap(t *testing.T) {
	seeds := make([]uint64, MaxPoints+1)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	if _, err := (Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: seeds}).Points(); err == nil {
		t.Fatal("oversized matrix expanded without error")
	}
}

func TestMatrixMachines(t *testing.T) {
	patches := func(docs ...string) []json.RawMessage {
		out := make([]json.RawMessage, len(docs))
		for i, d := range docs {
			out[i] = json.RawMessage(d)
		}
		return out
	}

	// Expansion order: mixes, then policies, then machines, then seeds.
	m := Matrix{
		Base:     Spec{Benchmarks: []string{"gcc", "mcf"}},
		Mixes:    []string{"2ctx-CPU-A", "4ctx-MEM-A"},
		Policies: []string{"ICOUNT", "FLUSH"},
		Machines: patches(`{"IQSize":48}`, `{"IQSize":192}`),
		Seeds:    []uint64{1, 2},
	}
	points, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("got %d points, want 16", len(points))
	}
	for i, want := range map[int]string{
		0:  "2ctx-CPU-A/ICOUNT/machine0/seed1",
		1:  "2ctx-CPU-A/ICOUNT/machine0/seed2",
		2:  "2ctx-CPU-A/ICOUNT/machine1/seed1",
		4:  "2ctx-CPU-A/FLUSH/machine0/seed1",
		15: "4ctx-MEM-A/FLUSH/machine1/seed2",
	} {
		if points[i].Name != want {
			t.Errorf("point %d = %q, want %q", i, points[i].Name, want)
		}
	}
	// A patch onto no base machine starts from the workload's Table 1
	// default, sized for the point's own context count.
	for i, wantIQ := range map[int]int{0: 48, 2: 192, 15: 192} {
		want := core.DefaultConfig(points[i].Threads())
		want.IQSize = wantIQ
		if got := points[i].Machine; got == nil || !reflect.DeepEqual(*got, want) {
			t.Errorf("point %d machine = %+v, want the default with IQSize %d", i, got, wantIQ)
		}
	}

	// MaxPoints counts the machine axis.
	seeds := make([]uint64, MaxPoints/2+1)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	big := Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: seeds, Machines: patches(`{}`, `{}`)}
	if _, err := big.Points(); err == nil {
		t.Error("machines x seeds beyond MaxPoints expanded without error")
	}

	// A patch applies onto Base.Machine when the base has one.
	base := core.DefaultConfig(2)
	base.ROBSize = 32
	points, err = Matrix{Base: Spec{Mix: "2ctx-CPU-A", Machine: &base}, Machines: patches(`{"IQSize":48}`, `{"ROBSize":64}`)}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Machine; got.IQSize != 48 || got.ROBSize != 32 {
		t.Errorf("patch 0 onto the base machine: IQ %d ROB %d, want 48 32", got.IQSize, got.ROBSize)
	}
	if got := points[1].Machine; got.IQSize != base.IQSize || got.ROBSize != 64 {
		t.Errorf("patch 1 onto the base machine: IQ %d ROB %d, want %d 64", got.IQSize, got.ROBSize, base.IQSize)
	}
	if base.ROBSize != 32 || base.IQSize != core.DefaultConfig(2).IQSize {
		t.Error("a patch wrote through to the base machine")
	}

	// An unknown patch key is an error, not a silently default field.
	if _, err := (Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Machines: patches(`{"IQSzie":48}`)}).Points(); err == nil {
		t.Error("unknown machine patch key accepted")
	}

	// A machine-less matrix marshals exactly as before the axis existed
	// (the benchmark's avfd sessions post one).
	data, err := json.Marshal(Matrix{V: SpecVersion, Name: "bench-0007",
		Base:     Spec{V: SpecVersion, Mix: "2ctx-CPU-A", Policy: "ICOUNT", Seed: 42, Instructions: 3000, Warmup: 1000},
		Policies: []string{"ICOUNT", "FLUSH"}, Mixes: []string{"2ctx-CPU-A", "2ctx-MEM-A"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"name":"bench-0007","base":{"v":1,"mix":"2ctx-CPU-A","policy":"ICOUNT","seed":42,"instructions":3000,"warmup":1000},"policies":["ICOUNT","FLUSH"],"mixes":["2ctx-CPU-A","2ctx-MEM-A"],"seeds":[1,2]}`
	if string(data) != want {
		t.Errorf("machine-less matrix marshals to\n%s\nwant\n%s", data, want)
	}
}
