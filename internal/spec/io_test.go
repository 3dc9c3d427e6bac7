package spec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestReadJobRejectsTrailingData: a spec file holding more than one
// JSON value (concatenated documents, a partially overwritten file)
// must fail loudly — historically ReadJob decoded the first value and
// silently ignored the rest, so a corrupted sweep input half-ran.
func TestReadJobRejectsTrailingData(t *testing.T) {
	job, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := WriteJob(&one, job); err != nil {
		t.Fatal(err)
	}

	t.Run("concatenated documents", func(t *testing.T) {
		two := one.String() + one.String()
		if _, err := ReadJob(strings.NewReader(two)); err == nil {
			t.Fatalf("ReadJob accepted two concatenated job documents")
		} else if !strings.Contains(err.Error(), "trailing") {
			t.Errorf("error does not name the trailing data: %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := ReadJob(strings.NewReader(one.String() + "garbage")); err == nil {
			t.Fatalf("ReadJob accepted trailing non-JSON data")
		}
	})
	t.Run("trailing whitespace ok", func(t *testing.T) {
		if _, err := ReadJob(strings.NewReader(one.String() + " \n\t\n")); err != nil {
			t.Fatalf("ReadJob rejected trailing whitespace: %v", err)
		}
	})
}

// TestReadJobSizeBound: a document over MaxDocBytes must fail with
// ErrDocTooLarge instead of buffering unbounded input — the decoder is
// network-facing now (the sweep service feeds it request bodies). The
// oversized inputs are built from legal JSON whitespace so only the
// byte bound, not the grammar, can reject them.
func TestReadJobSizeBound(t *testing.T) {
	pad := strings.Repeat(" ", MaxDocBytes+2)

	t.Run("oversized job", func(t *testing.T) {
		// Whitespace between tokens is valid JSON, so without the bound
		// this would decode cleanly after buffering >16 MiB.
		doc := `{"version":` + pad + `1}`
		if _, err := ReadJob(strings.NewReader(doc)); !errors.Is(err, ErrDocTooLarge) {
			t.Fatalf("oversized job error = %v, want ErrDocTooLarge", err)
		}
	})
	t.Run("oversized array", func(t *testing.T) {
		doc := "[" + pad + "]"
		if _, err := ReadJobs(strings.NewReader(doc)); !errors.Is(err, ErrDocTooLarge) {
			t.Fatalf("oversized array error = %v, want ErrDocTooLarge", err)
		}
	})
	t.Run("unbounded stream stops at the limit", func(t *testing.T) {
		// An endless reader must fail after ~MaxDocBytes, not hang or
		// grow: the counting reader proves consumption stopped.
		endless := &countingReader{r: repeatReader{' '}}
		if _, err := ReadJob(endless); !errors.Is(err, ErrDocTooLarge) {
			t.Fatalf("endless input error = %v, want ErrDocTooLarge", err)
		}
		if endless.n > MaxDocBytes+1 {
			t.Fatalf("decoder consumed %d bytes, over the %d limit", endless.n, MaxDocBytes+1)
		}
	})
	t.Run("bound not charged to valid specs", func(t *testing.T) {
		job, err := Encode(baseConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		var one bytes.Buffer
		if err := WriteJob(&one, job); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJob(bytes.NewReader(one.Bytes())); err != nil {
			t.Fatalf("in-bound spec rejected: %v", err)
		}
		if _, err := ReadJobs(strings.NewReader("[" + one.String() + "," + one.String() + "]")); err != nil {
			t.Fatalf("in-bound spec array rejected: %v", err)
		}
	})
}

// repeatReader yields one byte forever.
type repeatReader struct{ b byte }

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
	}
	return len(p), nil
}

// TestReadJobs covers the sweep-batch wire form: arrays round-trip,
// unknown fields and trailing content are rejected exactly as for
// single documents.
func TestReadJobs(t *testing.T) {
	job, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := WriteJob(&one, job); err != nil {
		t.Fatal(err)
	}
	doc := "[" + one.String() + "," + one.String() + "]"

	jobs, err := ReadJobs(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("decoded %d jobs, want 2", len(jobs))
	}
	for i, got := range jobs {
		if _, err := Decode(got); err != nil {
			t.Fatalf("job %d does not decode: %v", i, err)
		}
	}

	if _, err := ReadJobs(strings.NewReader(doc + "garbage")); err == nil {
		t.Fatal("ReadJobs accepted trailing data")
	}
	if _, err := ReadJobs(strings.NewReader(`[{"version":1,"bogus":{}}]`)); err == nil {
		t.Fatal("ReadJobs accepted an unknown field")
	}
	empty, err := ReadJobs(strings.NewReader("[]"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty array = (%v, %v), want ([], nil)", empty, err)
	}
}

// TestReadJobSizeRuleBeforeSyntax: the size bound is the one rule for
// oversized input, whatever its content. A body over MaxDocBytes is
// ErrDocTooLarge even when a syntax error comes first — an oversized
// body is refused as too large (413 in sweepd), never as malformed.
func TestReadJobSizeRuleBeforeSyntax(t *testing.T) {
	doc := `{"version":x` + strings.Repeat(" ", MaxDocBytes)
	if _, err := ReadJob(strings.NewReader(doc)); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("malformed oversized job error = %v, want ErrDocTooLarge", err)
	}
	if _, err := ReadJobs(strings.NewReader("[" + doc)); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("malformed oversized array error = %v, want ErrDocTooLarge", err)
	}
	// At the bound exactly, the same input is judged on its syntax.
	doc = doc[:MaxDocBytes]
	if _, err := ReadJob(strings.NewReader(doc)); err == nil || errors.Is(err, ErrDocTooLarge) {
		t.Errorf("malformed in-bound job error = %v, want a decode error", err)
	}
}
