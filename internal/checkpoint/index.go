package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fault"
)

// IndexFile is the conventional name of the snapshot index inside a
// snapshot directory.
const IndexFile = "index"

// indexHeader versions the index format independently of the record format.
const indexHeader = "CRSPIDX1"

// Index maps personalization cache keys (e.g. "3,17,42") to the record
// filenames holding their snapshots, relative to the snapshot directory.
// It is the directory's table of contents: files not listed here are
// ignored on restore, so a torn record write (a leftover temp file) can
// never be picked up.
type Index map[string]string

// ReadIndex loads an index file from the real filesystem; see ReadIndexFS.
func ReadIndex(path string) (Index, error) { return ReadIndexFS(fault.OS{}, path) }

// ReadIndexFS loads an index file. A missing file is an empty index, not an
// error; a malformed file is an error. Entries are appended one per write
// (AppendIndexFS), so the file is a journal: duplicate keys resolve to the
// last entry, and a write torn by a crash is dropped silently rather than
// poisoning the whole index (the orphaned record re-indexes on its next
// snapshot). Both writers end every line with '\n', so a torn write is
// recognized by its missing newline: an empty file or a bare prefix of the
// header is an empty index, and text after the last newline is never an
// entry, however whole it looks. A malformed FINAL line is dropped too; a
// malformed interior line is still an error.
func ReadIndexFS(fsys fault.FS, path string) (Index, error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return Index{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}

	header, body, ok := strings.Cut(string(raw), "\n")
	if !ok && strings.HasPrefix(indexHeader, header) {
		return Index{}, nil // the first append was torn inside its header
	}
	if header != indexHeader {
		return nil, fmt.Errorf("checkpoint: %s is not a snapshot index", path)
	}
	lines := strings.Split(body, "\n")
	lines = lines[:len(lines)-1] // what follows the last newline: "" or a torn append
	idx := Index{}
	for i, l := range lines {
		key, file, ok := strings.Cut(l, "\t")
		if !ok || key == "" || file == "" {
			if i == len(lines)-1 {
				break // torn tail: drop the partial entry
			}
			return nil, fmt.Errorf("checkpoint: malformed index entry at %s line %d", path, i+1)
		}
		idx[key] = file
	}
	return idx, nil
}

// AppendIndexFS journals one entry to the index file in a single O_APPEND
// write (creating the file with its header first if needed), so indexing a
// new snapshot costs O(1) instead of rewriting every entry. ReadIndex's
// last-entry-wins and torn-tail rules make the append crash-safe: a partial
// final line loses only that entry, never the index. The entry is fsynced
// before the call returns — an indexed snapshot is an acknowledged one, and
// an acknowledgment that can evaporate in a power cut is a lie.
func AppendIndexFS(fsys fault.FS, path, key, file string) error {
	if key == "" || file == "" || strings.ContainsAny(key+file, "\t\n") {
		return fmt.Errorf("checkpoint: invalid index entry %q -> %q", key, file)
	}
	f, err := fsys.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	entry := key + "\t" + file + "\n"
	switch {
	case st.Size() == 0:
		entry = indexHeader + "\n" + entry
	default:
		// Never concatenate onto a torn tail: if the file does not end in
		// a newline, terminate the partial line first (ReadIndex then
		// rejects or drops it on its own merits, instead of a garbled key).
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
			f.Close()
			return err
		}
		if last[0] != '\n' {
			entry = "\n" + entry
		}
	}
	if _, err := f.Write([]byte(entry)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteIndexFS atomically replaces the index file: the new content lands in
// a temp file in the same directory (written and fsynced before the rename
// publishes it, then the directory is fsynced so the rename itself is
// durable), so readers see either the old or the new index, never a torn
// one — even across a power cut. Entries are written in sorted key order
// for reproducible files.
func WriteIndexFS(fsys fault.FS, path string, idx Index) error {
	var b strings.Builder
	b.WriteString(indexHeader + "\n")
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, idx[k])
	}

	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(b.String())); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
