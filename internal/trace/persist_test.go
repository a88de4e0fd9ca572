package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	ds := dataset(t)
	var buf bytes.Buffer
	if err := ds.WriteVisits(&buf); err != nil {
		t.Fatalf("WriteVisits: %v", err)
	}
	visits, err := ReadVisits(&buf)
	if err != nil {
		t.Fatalf("ReadVisits: %v", err)
	}
	if len(visits) != len(ds.Visits) {
		t.Fatalf("round trip lost visits: %d -> %d", len(ds.Visits), len(visits))
	}
	for i := range visits {
		if visits[i] != ds.Visits[i] {
			t.Fatalf("visit %d differs: %+v vs %+v", i, visits[i], ds.Visits[i])
		}
	}
}

func TestWriteEmptyFails(t *testing.T) {
	var buf bytes.Buffer
	empty := &Dataset{}
	if err := empty.WriteVisits(&buf); err == nil {
		t.Fatal("empty dataset written")
	}
	var nilDS *Dataset
	if err := nilDS.WriteVisits(&buf); err == nil {
		t.Fatal("nil dataset written")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadVisits(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadVisits(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Wrong feature width.
	if _, err := ReadVisits(strings.NewReader(
		`{"user":0,"session":0,"page":"p","features":[1,2],"readingSeconds":5}`)); err == nil {
		t.Fatal("short feature vector accepted")
	}
	// Non-positive reading time.
	if _, err := ReadVisits(strings.NewReader(
		`{"user":0,"session":0,"page":"p","features":[1,2,3,4,5,6,7,8,9,10],"readingSeconds":0}`)); err == nil {
		t.Fatal("zero reading time accepted")
	}
}

func TestReadSingleRecord(t *testing.T) {
	visits, err := ReadVisits(strings.NewReader(
		`{"user":3,"session":1,"page":"x","features":[1,2,3,4,5,6,7,8,9,10],"readingSeconds":12.5,"interested":true}`))
	if err != nil {
		t.Fatalf("ReadVisits: %v", err)
	}
	v := visits[0]
	if v.User != 3 || v.Session != 1 || v.Page != "x" || !v.Interested {
		t.Fatalf("visit = %+v", v)
	}
	if v.ReadingSeconds != 12.5 || v.Features[0] != 1 || v.Features[9] != 10 {
		t.Fatalf("visit payload = %+v", v)
	}
}

// FuzzReadVisits feeds arbitrary bytes to ReadVisits. It must return an
// error or visits that hold the reader's invariants and survive a
// WriteVisits round trip unchanged: the visits read back equal, and writing
// them again gives the same bytes.
//
//	go test ./internal/trace -run=FuzzReadVisits -fuzz=FuzzReadVisits -fuzztime=20s
func FuzzReadVisits(f *testing.F) {
	f.Add([]byte(`{"user":3,"session":1,"page":"x","pool":2,"features":[1,2,3,4,5,6,7,8,9,10],"readingSeconds":12.5,"interested":true}`))
	f.Add([]byte(`{"user":0,"session":0,"page":"p","features":[-0,1e300,5e-324,4,5,6,7,8,9,10],"readingSeconds":1e-300}` + "\n" +
		`{"user":-1,"session":2,"page":"é` + "\xff" + `","features":[0,0,0,0,0,0,0,0,0,0],"readingSeconds":3}`))
	f.Add([]byte(`{"user":0,"session":0,"page":"p","features":[1,2],"readingSeconds":5}`))
	f.Add([]byte(`{"features":[1,2,3,4,5,6,7,8,9,10],"readingSeconds":1,"extra":[{}]} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		visits, err := ReadVisits(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(visits) == 0 {
			t.Fatal("ReadVisits returned no visits and no error")
		}
		for i, v := range visits {
			if !(v.ReadingSeconds > 0) {
				t.Fatalf("visit %d: reading time %v accepted", i, v.ReadingSeconds)
			}
		}
		var first bytes.Buffer
		if err := (&Dataset{Visits: visits}).WriteVisits(&first); err != nil {
			t.Fatalf("read visits do not write: %v", err)
		}
		again, err := ReadVisits(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written visits do not read back: %v", err)
		}
		if len(again) != len(visits) {
			t.Fatalf("round trip: %d visits became %d", len(visits), len(again))
		}
		for i := range visits {
			if again[i] != visits[i] {
				t.Fatalf("visit %d: %+v became %+v", i, visits[i], again[i])
			}
		}
		var second bytes.Buffer
		if err := (&Dataset{Visits: again}).WriteVisits(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewrite differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
