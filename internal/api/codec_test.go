package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// refPredict and refRoute are the structs the shard and the router decoded
// a body into before the codec existed; encoding/json stays the reference
// the codec is held to.
type refPredict struct {
	Classes []int       `json:"classes"`
	Samples int         `json:"samples"`
	Inputs  [][]float64 `json:"inputs"`
}

type refRoute struct {
	Classes []int  `json:"classes"`
	QoS     string `json:"qos"`
}

// refBatch is the deleted inputsToBatch: rows checked against vol in order,
// then laid end to end.
func refBatch(inputs [][]float64, vol int) ([]float64, error) {
	var out []float64
	for i, in := range inputs {
		if len(in) != vol {
			return nil, fmt.Errorf("input %d has %d values, want C*H*W=%d", i, len(in), vol)
		}
		out = append(out, in...)
	}
	return out, nil
}

// codecVol is the row length the differential tests decode against: short
// enough that a fuzzer reaches bodies whose every row is full.
const codecVol = 3

// checkCodec holds both entry points of the codec to encoding/json on one
// body: the same accept or reject, and on accept the same values, floats bit
// for bit.
func checkCodec(t *testing.T, body []byte) {
	t.Helper()
	var want refPredict
	wantErr := json.Unmarshal(body, &want)
	var got predictRequest
	gotErr := got.decode(body, codecVol)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decode(%q): codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil {
		if !slices.Equal(got.classes, want.Classes) || got.samples != want.Samples || got.rows != len(want.Inputs) {
			t.Fatalf("decode(%q): classes %v samples %d rows %d, encoding/json %+v", body, got.classes, got.samples, got.rows, want)
		}
		wantX, wantErr := refBatch(want.Inputs, codecVol)
		gotX, gotErr := got.batch(codecVol)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("batch(%q): codec error %v, reference %v", body, gotErr, wantErr)
		}
		if len(gotX) != len(wantX) {
			t.Fatalf("batch(%q): %d values, reference %d", body, len(gotX), len(wantX))
		}
		for i := range wantX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("batch(%q): value %d is %v, reference %v", body, i, gotX[i], wantX[i])
			}
		}
	}

	var wantR refRoute
	wantErr = json.Unmarshal(body, &wantR)
	classes, qos, gotErr := Route(body, nil)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("Route(%q): codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil && (!slices.Equal(classes, wantR.Classes) || qos != wantR.QoS) {
		t.Fatalf("Route(%q): classes %v qos %q, encoding/json %+v", body, classes, qos, wantR)
	}
}

// codecCorpus seeds the fuzzer and runs as a table in tier-1: the bodies of
// the api_test.go error-path table, well-formed requests, and the corners
// where a hand-written decoder and encoding/json part ways most easily.
var codecCorpus = []string{
	// TestErrorPaths and TestEndpoints bodies.
	`{"classes":`, ``, `{"classes":[]}`, `{"classes":[99]}`, `{"classes":[-1]}`,
	`{"classes":[1,3],"qos":"platinum"}`, `{"classes":[1],`, `{"classes":[],"samples":4}`,
	`{"classes":[42],"samples":4}`, `{"classes":[1],"inputs":[[1,2,3]]}`, `{"key":`, `{}`,
	`{"classes":[1,3],"samples":8}`, `{"classes":[1],"inputs":[[1,2]]}`, `not json`,
	// Well-formed, in the shapes clients send.
	`{"classes":[3,1,3],"inputs":[[0.25,-1.5e-3,7],[1E2,0,-0]]}`,
	` { "classes" : [ 1 , 2 ] , "inputs" : [ [ 1 , 2 , 3 ] ] } ` + "\r\n\t",
	`{"inputs":[[1,2,3]],"classes":[2],"samples":null}`,
	`{"classes":[0],"inputs":[[4.9e-324,1.7976931348623157e308,0.1000000000000000055511151231257827]]}`,
	// Trailing data, top-level values that are not objects.
	`{"classes":[1]} junk`, `{"classes":[1]}{}`, `null`, ` null `, `nul`, `[]`, `[1]`, `3`, `"x"`, `true`, "{}\x00",
	// Member names: case folds, escapes, the two non-ASCII letters that fold to ASCII.
	`{"Classes":[1],"SAMPLES":2,"iNpUtS":[[1,2,3]],"QoS":"gold"}`,
	`{"classes":[4],"samples":5,"inputs":[[1,2,3]]}`,
	"{\"claſſeſ\":[6],\"ſampleſ\":7,\"inputſ\":[[1,2,3]],\"qoſ\":\"batch\"}",
	`{"claſſes":[8]}`, "{\"Key\":1,\"classes \":[1],\"class\":[2],\"classess\":[3]}",
	`{"classes\u0000":[1],"😀":2,"\ud800":3,"\udc00\ud800":4,"cl` + "\xff" + `sses":[9]}`,
	`{"çlasses":[1],"classes":[2]}`, `{"":[1]}`,
	// Duplicate members decode over the earlier value.
	`{"classes":[1,2,3],"classes":[9]}`, `{"classes":[5],"classes":[null]}`,
	`{"classes":[1,2,3],"classes":[null],"classes":[null,null,null]}`,
	`{"classes":[1,2],"classes":null,"classes":[null,null]}`, `{"classes":[1,2],"classes":[],"classes":[null]}`,
	`{"samples":3,"samples":null}`, `{"samples":3,"samples":4}`, `{"qos":"gold","qos":null}`, `{"qos":"gold","qos":"batch"}`,
	`{"inputs":[[1,2,3]],"inputs":[[null,5,null]]}`, `{"inputs":[[1,2]],"inputs":[[null,null,null]]}`,
	`{"inputs":[[1,2,3],[4,5,6]],"inputs":[[7,8,9]],"inputs":[[null,null,null],[null,null,null]]}`,
	`{"inputs":[[1,2,3]],"inputs":[null],"inputs":[[null,null,null]]}`,
	`{"inputs":[[1,2,3]],"inputs":[[]],"inputs":[[null,null,null]]}`,
	`{"inputs":[[1,2,3]],"inputs":null,"inputs":[[null,null,null]]}`,
	`{"inputs":[[1,2,3]],"inputs":[],"inputs":[[null,null,null]]}`,
	`{"inputs":[[1,2,3,4]],"inputs":[[null,null,null]]}`, `{"inputs":[[],[1,2,3]],"inputs":[[null,null,null],[null,null,null]]}`,
	`{"inputs":[[1],[2],[3],[4],[5]],"inputs":[[null,null,null],[null,null,null]]}`,
	// null, wrong types, integer-only classes.
	`{"classes":null,"samples":null,"inputs":null,"qos":null}`, `{"classes":[null,1]}`, `{"inputs":[null,[1,2,3]]}`,
	`{"classes":[1.0]}`, `{"classes":[1e0]}`, `{"classes":[-0]}`, `{"classes":[9223372036854775807]}`,
	`{"classes":[9223372036854775808]}`, `{"classes":["1"]}`, `{"classes":{}}`, `{"classes":5}`, `{"classes":[[1]]}`,
	`{"classes":[true]}`, `{"samples":"3"}`, `{"samples":3.5}`, `{"samples":[3]}`, `{"qos":5}`, `{"qos":["gold"]}`,
	`{"qos":"gold\n\"\\\/\b\f\r\t😀\ud800x` + "\xff" + `"}`,
	`{"inputs":[[1,"2",3]]}`, `{"inputs":[1]}`, `{"inputs":{"0":[1,2,3]}}`, `{"inputs":[[1e999,0,0]]}`, `{"inputs":[[true,0,0]]}`,
	// Number and string syntax.
	`{"inputs":[[01,2,3]]}`, `{"inputs":[[1.,2,3]]}`, `{"inputs":[[.5,2,3]]}`, `{"inputs":[[-,2,3]]}`, `{"inputs":[[1e,2,3]]}`,
	`{"inputs":[[1e+,2,3]]}`, `{"inputs":[[+1,2,3]]}`, `{"inputs":[[1,2,3,]]}`, `{"inputs":[[1,2,3],]}`, `{"classes":[1],}`,
	`{"inputs":[[0x10,2,3]]}`, `{"inputs":[[1_0,2,3]]}`, `{"inputs":[[NaN,2,3]]}`, `{"inputs":[[Infinity,2,3]]}`,
	`{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"\u12g4"}`, "{\"x\":\"a\nb\"}", `{"x":"unterminated}`, `{"x":"\`, `{"x":tru}`, `{"x":nulll}`,
	`{"x" 1}`, `{"x":1 "y":2}`, `{x:1}`, `{"x":1,,"y":2}`, `{,}`, `{"x":}`, `{"x":[1 2]}`, `{"x":[}`, `{"x":{"y":[{"z":null}]},"classes":[1]}`,
	// Unknown members are checked and ignored.
	`{"request_id":"abc","classes":[1],"meta":{"a":[1,2,{"b":"c"}],"d":false},"inputs":[[1,2,3]]}`,
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, body := range codecCorpus {
		checkCodec(t, []byte(body))
	}
	// encoding/json's nesting limit, from both sides.
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		nest := depth - 1 // the request object is the first level
		checkCodec(t, []byte(`{"x":`+strings.Repeat("[", nest)+strings.Repeat("]", nest)+`}`))
		checkCodec(t, []byte(`{"x":`+strings.Repeat(`{"y":`, nest)+"1"+strings.Repeat("}", nest)+`}`))
	}
}

func FuzzPredictCodec(f *testing.F) {
	for _, body := range codecCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkCodec(t, body) })
}

// TestDecodeReusesStorage: a predictRequest that decoded one body decodes
// the next as a fresh one would — nothing of the first shows through.
func TestDecodeReusesStorage(t *testing.T) {
	var reused predictRequest
	if err := reused.decode([]byte(`{"classes":[7,8,9],"samples":5,"inputs":[[1,2,3],[4,5,6]]}`), codecVol); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"classes":[null,null],"inputs":[[null,null,null],[null,null,null],[null,null,null]]}`,
		`{"classes":[1]}`,
		`{"inputs":[[null,1,null]]}`,
	} {
		var fresh predictRequest
		if err := fresh.decode([]byte(body), codecVol); err != nil {
			t.Fatal(err)
		}
		if err := reused.decode([]byte(body), codecVol); err != nil {
			t.Fatal(err)
		}
		fx, _ := fresh.batch(codecVol)
		rx, _ := reused.batch(codecVol)
		if !slices.Equal(reused.classes, fresh.classes) || reused.samples != fresh.samples || !slices.Equal(rx, fx) {
			t.Fatalf("%s: reused storage decoded classes %v samples %d inputs %v, fresh %v %d %v",
				body, reused.classes, reused.samples, rx, fresh.classes, fresh.samples, fx)
		}
	}
}

// TestShortRowsCannotReserveStrides: a body of many one-value rows is
// rejected for its first short row without the decoder laying out a full
// row of storage for each.
func TestShortRowsCannotReserveStrides(t *testing.T) {
	const vol = 1 << 16
	body := []byte(`{"classes":[1],"inputs":[` + strings.Repeat("[0],", 999) + `[0]]}`)
	var req predictRequest
	if err := req.decode(body, vol); err != nil {
		t.Fatal(err)
	}
	if _, err := req.batch(vol); err == nil || req.rows != 1000 {
		t.Fatalf("rows %d, batch error %v", req.rows, err)
	}
	if cap(req.x) > len(body) {
		t.Fatalf("%d-byte body grew the input storage to %d values", len(body), cap(req.x))
	}
}

// TestPredictReplyGolden: the appended reply is byte for byte what
// json.NewEncoder wrote for the map the handler used to build.
func TestPredictReplyGolden(t *testing.T) {
	for _, n := range []int{0, 1, 16} {
		preds := make([]int, n)
		for i := range preds {
			preds[i] = (i * 7) % 10
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"key": "0,3,11", "predictions": preds, "samples": len(preds)}); err != nil {
			t.Fatal(err)
		}
		if got := appendPredictReply(nil, []byte("0,3,11"), preds); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d predictions: reply %q, json.Encoder %q", n, got, want.Bytes())
		}
	}
}

// chunked hides a reader's length, so the request carries no Content-Length.
type chunked struct{ io.Reader }

func TestReadBody(t *testing.T) {
	payload := strings.Repeat("x", 5000)
	for _, tc := range []struct {
		name    string
		body    io.Reader
		limit   int64
		wantErr error
	}{
		{"content-length under the limit", strings.NewReader(payload), 5000, nil},
		{"content-length over the limit", strings.NewReader(payload), 4999, ErrBodyTooLarge},
		{"chunked under the limit", chunked{strings.NewReader(payload)}, 5000, nil},
		{"chunked over the limit", chunked{strings.NewReader(payload)}, 4999, ErrBodyTooLarge},
		{"empty", strings.NewReader(""), 10, nil},
	} {
		r := httptest.NewRequest(http.MethodPost, "/predict", tc.body)
		got, err := ReadBody(make([]byte, 0, 16), r, tc.limit)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.wantErr)
		}
		if err == nil && string(got) != payload[:len(got)] || err == nil && tc.name != "empty" && len(got) != len(payload) {
			t.Fatalf("%s: read %d bytes", tc.name, len(got))
		}
	}
}
