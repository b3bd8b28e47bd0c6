package schema

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func forumTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("forum_sub", []Column{
		{Name: "userId", Type: value.KindText},
		{Name: "forum", Type: value.KindText},
		{Name: "since", Type: value.KindInt},
	}, []string{"userId", "forum"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", []Column{{Name: "a", Type: value.KindInt}}, []string{"a"}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewTable("t", nil, nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: value.KindInt}}, nil); err == nil {
		t.Error("no PK should fail")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: value.KindInt}, {Name: "A", Type: value.KindInt}}, []string{"a"}); err == nil {
		t.Error("duplicate column (case-insensitive) should fail")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: value.KindInt}}, []string{"b"}); err == nil {
		t.Error("unknown PK column should fail")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: value.KindInt}}, []string{"a", "a"}); err == nil {
		t.Error("repeated PK column should fail")
	}
}

func TestColumnLookupAndPK(t *testing.T) {
	tbl := forumTable(t)
	if tbl.ColumnIndex("USERID") != 0 || tbl.ColumnIndex("forum") != 1 || tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex lookups wrong")
	}
	if !tbl.IsPKColumn(0) || !tbl.IsPKColumn(1) || tbl.IsPKColumn(2) {
		t.Error("IsPKColumn wrong")
	}
	names := tbl.ColumnNames()
	if len(names) != 3 || names[2] != "since" {
		t.Errorf("ColumnNames = %v", names)
	}
	row := value.Row{value.Text("U1"), value.Text("F2"), value.Int(9)}
	key := tbl.PrimaryKey(row)
	if len(key) != 2 || key[0].AsText() != "U1" || key[1].AsText() != "F2" {
		t.Errorf("PrimaryKey = %v", key)
	}
	if tbl.EncodePrimaryKey(row) != EncodeKeyTuple(key) {
		t.Error("EncodePrimaryKey should equal EncodeKeyTuple of extracted key")
	}
}

func TestPKColumnsBecomeNotNull(t *testing.T) {
	tbl := forumTable(t)
	if !tbl.Columns[0].NotNull || !tbl.Columns[1].NotNull {
		t.Error("PK columns should be forced NOT NULL")
	}
	if tbl.Columns[2].NotNull {
		t.Error("non-PK column should stay nullable")
	}
}

func TestCheckRow(t *testing.T) {
	tbl := forumTable(t)
	good := value.Row{value.Text("U1"), value.Text("F2"), value.Int(1)}
	if _, err := tbl.CheckRow(good); err != nil {
		t.Errorf("good row rejected: %v", err)
	}
	if _, err := tbl.CheckRow(value.Row{value.Text("U1")}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := tbl.CheckRow(value.Row{value.Null, value.Text("F2"), value.Int(1)}); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	if _, err := tbl.CheckRow(value.Row{value.Int(1), value.Text("F2"), value.Int(1)}); err == nil {
		t.Error("type mismatch should fail")
	}
	// NULL allowed in nullable column.
	if _, err := tbl.CheckRow(value.Row{value.Text("U"), value.Text("F"), value.Null}); err != nil {
		t.Errorf("nullable NULL rejected: %v", err)
	}
	// CheckRow coerces in place: the caller hands over the row it built.
	out, _ := tbl.CheckRow(good)
	if &out[0] != &good[0] {
		t.Error("CheckRow copied its input row")
	}
}

func TestCheckRowCoercesInPlace(t *testing.T) {
	tbl, err := NewTable("m", []Column{
		{Name: "id", Type: value.KindInt},
		{Name: "score", Type: value.KindFloat},
		{Name: "ok", Type: value.KindBool},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Int(1), value.Int(3), value.Int(1)}
	out, err := tbl.CheckRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &row[0] {
		t.Error("CheckRow copied its input row")
	}
	if row[1].Kind() != value.KindFloat || row[1].AsFloat() != 3 {
		t.Errorf("int not widened to FLOAT in place: %v", row[1])
	}
	if row[2].Kind() != value.KindBool || !row[2].AsBool() {
		t.Errorf("int 1 not coerced to BOOL in place: %v", row[2])
	}
}

func TestCheckRowAllocsWithoutCoercion(t *testing.T) {
	tbl := forumTable(t)
	row := value.Row{value.Text("U1"), value.Text("F2"), value.Int(1)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tbl.CheckRow(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckRow allocated %v times for an already-typed row, want 0", allocs)
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in     value.Value
		target value.Kind
		want   value.Value
		ok     bool
	}{
		{value.Null, value.KindInt, value.Null, true},
		{value.Int(1), value.KindInt, value.Int(1), true},
		{value.Int(1), value.KindFloat, value.Float(1), true},
		{value.Float(2), value.KindInt, value.Int(2), true},
		{value.Float(2.5), value.KindInt, value.Null, false},
		{value.Int(0), value.KindBool, value.Bool(false), true},
		{value.Int(1), value.KindBool, value.Bool(true), true},
		{value.Int(2), value.KindBool, value.Null, false},
		{value.Bool(true), value.KindInt, value.Int(1), true},
		{value.Bool(false), value.KindInt, value.Int(0), true},
		{value.Text("x"), value.KindInt, value.Null, false},
	}
	for _, c := range cases {
		got, err := Coerce(c.in, c.target)
		if c.ok && err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.target, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Coerce(%v, %v) should fail", c.in, c.target)
		}
		if c.ok && !value.Equal(got, c.want) {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.target, got, c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := forumTable(t)
	cp := tbl.Clone()
	cp.Columns[0].Name = "mutated"
	cp.PKCols[0] = 99
	if tbl.Columns[0].Name != "userId" || tbl.PKCols[0] != 0 {
		t.Error("Clone aliased the original")
	}
	if cp.ColumnIndex("userid") != 0 {
		t.Error("Clone lost column index")
	}
}

func TestTableString(t *testing.T) {
	s := forumTable(t).String()
	for _, want := range []string{"CREATE TABLE forum_sub", "userId TEXT", "PRIMARY KEY (userId, forum)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestIndexKeyEncoding(t *testing.T) {
	tbl := forumTable(t)
	rowA := value.Row{value.Text("U1"), value.Text("F1"), value.Int(1)}
	rowB := value.Row{value.Text("U2"), value.Text("F1"), value.Int(2)}

	nonUnique := &Index{Name: "by_forum", Table: "forum_sub", Columns: []int{1}}
	ka := nonUnique.EncodeIndexKey(tbl, rowA)
	kb := nonUnique.EncodeIndexKey(tbl, rowB)
	if ka == kb {
		t.Error("non-unique index keys must embed PK and differ")
	}
	prefix := nonUnique.EncodeIndexPrefix(value.Row{value.Text("F1")})
	if !strings.HasPrefix(ka, prefix) || !strings.HasPrefix(kb, prefix) {
		t.Error("index prefix should prefix both keys")
	}

	unique := &Index{Name: "u", Table: "forum_sub", Columns: []int{1}, Unique: true}
	if unique.EncodeIndexKey(tbl, rowA) != unique.EncodeIndexKey(tbl, rowB) {
		t.Error("unique index key should not embed PK")
	}
}
