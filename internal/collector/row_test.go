package collector_test

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/wire"
)

// fillValue sets v, and every field or element under it, to a distinct
// non-zero value; a float becomes one inside (0,1), which a mean
// confidence must be. A kind it does not know fails the test, so a field
// added to wire.SourceState later is either covered or noticed.
func fillValue(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1 / float64(*n+1))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				t.Fatalf("%s.%s cannot be filled", v.Type(), v.Type().Field(i).Name)
			}
			fillValue(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), n)
	default:
		t.Fatalf("cannot fill a %s", v.Type())
	}
}

// filledState is a wire.SourceState with every field set, except the
// version-1-only Items, which no installed row holds.
func filledState(t *testing.T) wire.SourceState {
	var st wire.SourceState
	v, n := reflect.ValueOf(&st).Elem(), 0
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "Items" {
			fillValue(t, v.Field(i), &n)
		}
	}
	return st
}

// TestSourceRowRoundTrip: a row installed as a restore or an import
// installs it is the row the next checkpoint writes, field for field.
func TestSourceRowRoundTrip(t *testing.T) {
	st := filledState(t)
	c, err := collector.New(collector.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.InstallState("w1", st, 7)
	if got := c.Source("w1").State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("installed row\n%+v\nwrites back as\n%+v", st, got)
	}
}

// TestSourceRowBothTiers: the fleet view a collector shows for a row
// carries every summary field, and equals the one an aggregator merges
// from the summary that collector ships for it — both through the one
// mapping, SummaryOf.
func TestSourceRowBothTiers(t *testing.T) {
	const id = "w1"
	st := filledState(t)
	fn := &symtab.Fn{Name: "table_lookup", Base: 0x401000, Size: 0x300}
	items := []core.Item{
		{ID: 1, BeginTSC: 1000, EndTSC: 4000, SampleCount: 2, Confidence: 1,
			Funcs: []core.FuncSpan{{Fn: fn, Samples: 2, FirstTSC: 1100, LastTSC: 3900}}},
		{ID: 2, Core: 1, BeginTSC: 5000, EndTSC: 6000, Confidence: 0.5},
	}
	var err error
	if st.Summary, err = wire.AppendFleetSummary(nil, wire.FleetSummary{Source: id, FreqHz: st.FreqHz, Items: items}); err != nil {
		t.Fatal(err)
	}
	c, err := collector.New(collector.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.InstallState(id, st, len(items))

	a, err := agg.New(agg.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendFleetSummary(nil, c.Source(id).Shipped())
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	// A frame the aggregator refuses is never acked: fail, do not hang.
	client.SetDeadline(time.Now().Add(10 * time.Second))
	go a.HandleConn(server)
	if _, err := wire.ClientHandshake(client, "shard-a"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []wire.Frame{
		{Type: wire.TSeqStart, Payload: wire.AppendSeqStart(nil, wire.SeqStart{Epoch: 1, FirstSeq: 1})},
		{Type: wire.TFleetSummary, Payload: payload},
	} {
		if err := wire.WriteFrame(client, f); err != nil {
			t.Fatal(err)
		}
		if ack, err := (*wire.FramePool)(nil).NewReader(client).Next(); err != nil || ack.Type != wire.TAck {
			t.Fatalf("%s frame answered by %s (err %v), want an ack", f.Type, ack.Type, err)
		}
	}

	shown, merged := c.Fleet(), a.Fleet()
	if len(shown.Sources) != 1 || shown.Sources[0].Items != len(items) || len(shown.TopSlow) != len(items) {
		t.Fatalf("collector shows %+v", shown)
	}
	// Every row field is set, so a summary field left zero is one the
	// mapping dropped; only the verdict count comes from elsewhere.
	sum := reflect.ValueOf(shown.Sources[0])
	for i := 0; i < sum.NumField(); i++ {
		if name := sum.Type().Field(i).Name; name != "ActiveVerdicts" && sum.Field(i).IsZero() {
			t.Errorf("the collector's summary leaves %s zero", name)
		}
	}
	if !reflect.DeepEqual(shown, merged) {
		t.Fatalf("collector shows\n%+v\naggregator merged\n%+v", shown, merged)
	}
}
