//! Inverted indexes on categorical columns.
//!
//! Splitting a partition by an attribute is the hot operation of every
//! audit algorithm: `worstAttribute` tries every remaining attribute at
//! every step. The inverted index turns a split into per-code row-set
//! intersections instead of a full column scan.

use crate::sharded::ShardPlan;
use crate::table::Table;
use crate::{RowSet, StoreError};

/// One child of a single-pass split: the code, its rows, and the bin
/// counts of its members' scores (accumulated during the same walk that
/// collected the rows).
#[derive(Debug, Clone)]
pub struct SplitChild {
    /// The dictionary code shared by every member.
    pub code: u32,
    /// The member rows (sorted — inherited from the parent's order).
    pub rows: RowSet,
    /// Per-bin member counts (`bin_counts[bin_of[row]] += 1` per row).
    pub bin_counts: Vec<f64>,
}

/// Inverted index for one categorical attribute: rows grouped by code.
#[derive(Debug, Clone)]
pub struct CategoricalIndex {
    attr: usize,
    /// `postings[code]` = sorted rows holding that code.
    postings: Vec<RowSet>,
    /// The forward column: `codes[row]` = the row's dictionary code.
    /// Lets [`CategoricalIndex::split_with_bins`] split a partition in
    /// one walk over its rows instead of one posting intersection per
    /// code.
    codes: Vec<u32>,
    /// Byte-narrowed forward column, built **instead of** `codes` by the
    /// sharded constructors when the dictionary has ≤ 256 entries
    /// (`codes` stays empty then). Split walks are bandwidth bound, so
    /// reading 1 byte per row instead of 4 is the single biggest kernel
    /// lever — and not materialising the wide copy at all saves the
    /// build its largest allocation. `None` on push-built indexes
    /// ([`CategoricalIndex::build`], which the stream view maintains in
    /// place through the wide column).
    codes8: Option<Vec<u8>>,
}

/// Private helper unifying the two forward-column widths so the shared
/// kernels monomorphize one tight loop per width.
trait CodeWidth: Copy {
    fn idx(self) -> usize;
}
impl CodeWidth for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}
impl CodeWidth for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Dictionary-width ceiling for [`CategoricalIndex::split_onepass`]:
/// each child briefly reserves `rows.len()` capacity, so the kernel is
/// restricted to small dictionaries (every protected attribute of the
/// paper's schema is far below this).
const ONEPASS_MAX_CARDINALITY: usize = 64;

impl CategoricalIndex {
    /// Build the index for categorical attribute `attr` of `table`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when `attr` is not categorical.
    pub fn build(table: &Table, attr: usize) -> Result<Self, StoreError> {
        let codes =
            table
                .column(attr)
                .as_categorical()
                .ok_or_else(|| StoreError::NotCategorical {
                    attribute: table.schema().attribute(attr).name.clone(),
                })?;
        let cardinality = table
            .schema()
            .attribute(attr)
            .cardinality()
            .expect("categorical has cardinality");
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cardinality];
        for (row, &code) in codes.iter().enumerate() {
            buckets[code as usize].push(row as u32);
        }
        Ok(CategoricalIndex {
            attr,
            postings: buckets.into_iter().map(RowSet::from_sorted).collect(),
            codes: codes.to_vec(),
            codes8: None,
        })
    }

    /// Assemble an index from externally-built parts — the paged context
    /// build streams a column's pages once, producing the postings and
    /// the forward column in the same pass, then hands them here.
    ///
    /// Invariants are the caller's to guarantee: `postings[code]` holds
    /// exactly the rows whose forward-column entry is `code`, sorted
    /// ascending; exactly one of `codes8` / `codes` is populated (the
    /// byte column when the dictionary has ≤ 256 entries, mirroring
    /// [`CategoricalIndex::build_sharded`]'s narrowing).
    ///
    /// # Panics
    ///
    /// Debug-asserts the posting row total does not exceed the forward
    /// column length (paged live-subset builds index only the live rows,
    /// leaving skipped pages as zero-filled forward placeholders).
    pub fn from_parts(
        attr: usize,
        postings: Vec<RowSet>,
        codes8: Option<Vec<u8>>,
        codes: Vec<u32>,
    ) -> Self {
        debug_assert!(
            postings.iter().map(RowSet::len).sum::<usize>()
                <= codes8.as_ref().map_or(codes.len(), Vec::len),
            "postings must cover a subset of the forward column"
        );
        CategoricalIndex {
            attr,
            postings,
            codes,
            codes8,
        }
    }

    /// The indexed attribute.
    pub fn attribute(&self) -> usize {
        self.attr
    }

    /// Rows with the given code across the whole table.
    pub fn rows_with_code(&self, code: u32) -> &RowSet {
        &self.postings[code as usize]
    }

    /// Split `within` by the indexed attribute: one `(code, rows)` pair
    /// per code that is non-empty inside `within`.
    ///
    /// This is the legacy posting-intersection path, kept as the
    /// differential-test oracle for [`CategoricalIndex::split_with_bins`]
    /// (it touches every posting, so it costs O(table) per split even
    /// for tiny partitions).
    pub fn split(&self, within: &RowSet) -> Vec<(u32, RowSet)> {
        self.postings
            .iter()
            .enumerate()
            .filter_map(|(code, posting)| {
                let rows = posting.intersect(within);
                (!rows.is_empty()).then_some((code as u32, rows))
            })
            .collect()
    }

    /// The forward column: `codes()[row]` is the row's dictionary code.
    /// Borrowed for wide-column indexes; reconstructed (widened) from
    /// the byte column for narrow sharded indexes — an introspection
    /// accessor, not a kernel path.
    pub fn codes(&self) -> std::borrow::Cow<'_, [u32]> {
        match &self.codes8 {
            Some(codes8) => std::borrow::Cow::Owned(codes8.iter().map(|&c| u32::from(c)).collect()),
            None => std::borrow::Cow::Borrowed(&self.codes),
        }
    }

    /// Number of rows covered by the index (= table rows at build).
    pub fn rows_indexed(&self) -> usize {
        match &self.codes8 {
            Some(codes8) => codes8.len(),
            None => self.codes.len(),
        }
    }

    /// Dictionary size of the indexed attribute (posting-list count;
    /// codes may be absent from the data, their postings are empty).
    pub fn cardinality(&self) -> usize {
        self.postings.len()
    }

    /// Append the next row (id `codes().len()`) holding `code`.
    /// In-place maintenance for the stream layer — the index stays
    /// identical to a rebuild from the grown table.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] when `code` is outside the attribute's
    /// dictionary.
    pub fn push_row(&mut self, code: u32, attribute_name: &str) -> Result<(), StoreError> {
        if code as usize >= self.postings.len() {
            return Err(StoreError::BadCode {
                attribute: attribute_name.to_string(),
                code,
            });
        }
        let row = self.rows_indexed() as u32;
        self.postings[code as usize].insert(row);
        match &mut self.codes8 {
            Some(codes8) => codes8.push(code as u8),
            None => self.codes.push(code),
        }
        Ok(())
    }

    /// Move `row` from its current code's posting to `new_code`'s
    /// (no-op when the code is unchanged). In-place maintenance for the
    /// stream layer's `AttributeChanged` events.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] for codes outside the dictionary or rows
    /// outside the index.
    pub fn set_code(
        &mut self,
        row: u32,
        new_code: u32,
        attribute_name: &str,
    ) -> Result<(), StoreError> {
        if new_code as usize >= self.postings.len() || row as usize >= self.rows_indexed() {
            return Err(StoreError::BadCode {
                attribute: attribute_name.to_string(),
                code: new_code,
            });
        }
        let old_code = match &self.codes8 {
            Some(codes8) => u32::from(codes8[row as usize]),
            None => self.codes[row as usize],
        };
        if old_code != new_code {
            self.postings[old_code as usize].remove(row);
            self.postings[new_code as usize].insert(row);
            match &mut self.codes8 {
                Some(codes8) => codes8[row as usize] = new_code as u8,
                None => self.codes[row as usize] = new_code,
            }
        }
        Ok(())
    }

    /// Single-pass split kernel: one walk over `within`'s rows reading
    /// the forward column directly, emitting every non-empty child's row
    /// set **and** its score-bin counts simultaneously. `bin_of[row]`
    /// must hold the precomputed bin index of the row's score (`< bins`).
    ///
    /// Equivalent to [`CategoricalIndex::split`] plus one histogram
    /// build per child, at O(|within|) instead of O(table) cost.
    ///
    /// No production caller: the audit context splits through the
    /// sharded kernels ([`CategoricalIndex::split_onepass`],
    /// [`CategoricalIndex::split_with_bins_two_pass`], the shard merge).
    /// This is the serial reference they are tested against, and the
    /// scalar replay the `shard_scale` bench gates against.
    ///
    /// # Panics
    ///
    /// When `bin_of` is shorter than the table or holds an index
    /// `>= bins` for a row of `within` (programming errors at the
    /// store/audit boundary).
    pub fn split_with_bins(&self, within: &RowSet, bin_of: &[u32], bins: usize) -> Vec<SplitChild> {
        match &self.codes8 {
            Some(codes8) => self.split_with_bins_in(codes8, within, bin_of, bins),
            None => self.split_with_bins_in(&self.codes, within, bin_of, bins),
        }
    }

    fn split_with_bins_in<C: CodeWidth>(
        &self,
        codes: &[C],
        within: &RowSet,
        bin_of: &[u32],
        bins: usize,
    ) -> Vec<SplitChild> {
        let cardinality = self.postings.len();
        let mut child_rows: Vec<Vec<u32>> = vec![Vec::new(); cardinality];
        let mut child_bins: Vec<Vec<f64>> = vec![vec![0.0; bins]; cardinality];
        for &row in within.rows() {
            let code = codes[row as usize].idx();
            child_rows[code].push(row);
            child_bins[code][bin_of[row as usize] as usize] += 1.0;
        }
        child_rows
            .into_iter()
            .zip(child_bins)
            .enumerate()
            .filter(|(_, (rows, _))| !rows.is_empty())
            .map(|(code, (rows, bin_counts))| SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts,
            })
            .collect()
    }

    /// The shared two-pass classification core: count rows and score
    /// bins per code, then fill exactly-sized per-code row vectors
    /// through raw write cursors (no capacity branches, no `len`
    /// bookkeeping in the hot loop). Counters are plain `u32` arrays,
    /// keeping the inner loops free of float traffic and reallocation.
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_with_bins`].
    fn classify_rows(
        &self,
        rows: &[u32],
        bin_of: &[u32],
        bins: usize,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        match &self.codes8 {
            Some(codes8) => self.classify_rows_in(codes8, rows, bin_of, bins),
            None => self.classify_rows_in(&self.codes, rows, bin_of, bins),
        }
    }

    fn classify_rows_in<C: CodeWidth>(
        &self,
        codes: &[C],
        rows: &[u32],
        bin_of: &[u32],
        bins: usize,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        let cardinality = self.postings.len();
        let mut row_counts = vec![0u32; cardinality];
        let mut bin_counts = vec![0u32; cardinality * bins];
        for &row in rows {
            let code = codes[row as usize].idx();
            let bin = bin_of[row as usize] as usize;
            // SAFETY: `codes[row] < cardinality` is the index invariant
            // (codes come from a dictionary of exactly `cardinality`
            // entries, enforced at build and on every mutation).
            unsafe { *row_counts.get_unchecked_mut(code) += 1 };
            bin_counts[code * bins + bin] += 1;
        }
        let mut rows_by_code: Vec<Vec<u32>> = row_counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        let mut cursors: Vec<*mut u32> = rows_by_code.iter_mut().map(Vec::as_mut_ptr).collect();
        for &row in rows {
            let code = codes[row as usize].idx();
            // SAFETY: `code < cardinality` as above, and each cursor
            // advances exactly `row_counts[code]` times over a buffer
            // with that exact capacity (both passes read the same
            // `rows`/`codes`).
            unsafe {
                let slot = cursors.get_unchecked_mut(code);
                slot.write(row);
                *slot = slot.add(1);
            }
        }
        for (v, &c) in rows_by_code.iter_mut().zip(&row_counts) {
            // SAFETY: exactly `c` elements were written through the
            // cursor into the buffer allocated with capacity `c`.
            unsafe { v.set_len(c as usize) };
        }
        (rows_by_code, bin_counts)
    }

    /// Classify one shard's rows with the two-pass kernel
    /// ([`CategoricalIndex::classify_rows`]). The shard's rows must be
    /// sorted (they are subslices of a sorted row set under a
    /// [`ShardPlan`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_with_bins`].
    pub fn split_shard(&self, shard_rows: &[u32], bin_of: &[u32], bins: usize) -> ShardSplit {
        let (rows_by_code, bin_counts) = self.classify_rows(shard_rows, bin_of, bins);
        ShardSplit {
            rows_by_code,
            bin_counts,
        }
    }

    /// Two-pass split over one sorted row slice, emitting the children
    /// directly — the serial fast path of the sharded split: no shard
    /// slicing and no merge copy, but the same exact-allocation kernel,
    /// so the output is **bit-identical** to
    /// [`CategoricalIndex::split_with_bins`] (rows come out in the same
    /// order; bin counts are integers converted once at the end).
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_with_bins`].
    pub fn split_with_bins_two_pass(
        &self,
        rows: &[u32],
        bin_of: &[u32],
        bins: usize,
    ) -> Vec<SplitChild> {
        let (rows_by_code, bin_counts) = self.classify_rows(rows, bin_of, bins);
        rows_by_code
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(code, rows)| SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts: bin_counts[code * bins..(code + 1) * bins]
                    .iter()
                    .map(|&c| f64::from(c))
                    .collect(),
            })
            .collect()
    }

    /// Split of the **whole table** straight from the postings: the
    /// children's row sets already exist (posting lists are exactly the
    /// per-code rows of the full table, sorted), so the only per-row
    /// work left is counting score bins over each posting. Bit-identical
    /// to `split_with_bins(RowSet::all(n), ..)` at a fraction of the
    /// cost — the root-partition split every audit starts with.
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_with_bins`].
    pub fn split_full_with_bins(&self, bin_of: &[u32], bins: usize) -> Vec<SplitChild> {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, posting)| !posting.is_empty())
            .map(|(code, posting)| {
                let mut counts = vec![0u32; bins];
                for &row in posting.rows() {
                    counts[bin_of[row as usize] as usize] += 1;
                }
                SplitChild {
                    code: code as u32,
                    rows: posting.clone(),
                    bin_counts: counts.into_iter().map(f64::from).collect(),
                }
            })
            .collect()
    }

    /// Merge per-shard classifications **in shard order** into the same
    /// children [`CategoricalIndex::split_with_bins`] emits. Row vectors
    /// concatenate (shards are contiguous row ranges, so the result is
    /// sorted) and bin counts add as integers, so the merge is exact —
    /// bit-identical to the serial kernel for any shard count.
    pub fn merge_shard_splits(partials: Vec<ShardSplit>, bins: usize) -> Vec<SplitChild> {
        let Some(first) = partials.first() else {
            return Vec::new();
        };
        let cardinality = first.rows_by_code.len();
        let mut children = Vec::new();
        for code in 0..cardinality {
            let total: usize = partials.iter().map(|p| p.rows_by_code[code].len()).sum();
            if total == 0 {
                continue;
            }
            let mut rows = Vec::with_capacity(total);
            let mut counts = vec![0u32; bins];
            for partial in &partials {
                rows.extend_from_slice(&partial.rows_by_code[code]);
                let from = &partial.bin_counts[code * bins..(code + 1) * bins];
                for (acc, &c) in counts.iter_mut().zip(from) {
                    *acc += c;
                }
            }
            children.push(SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts: counts.into_iter().map(f64::from).collect(),
            });
        }
        children
    }

    /// Sharded split: slice `within` by the plan's row ranges, classify
    /// each shard with [`CategoricalIndex::split_shard`], merge in shard
    /// order. A test oracle with no production caller: the serial
    /// reference for the pool-dispatched path in `fairjob-core`; output
    /// is bit-identical to [`CategoricalIndex::split_with_bins`].
    pub fn split_with_bins_sharded(
        &self,
        within: &RowSet,
        bin_of: &[u32],
        bins: usize,
        plan: &ShardPlan,
    ) -> Vec<SplitChild> {
        let sharded = plan.shard_rows(within);
        let partials = sharded
            .iter()
            .map(|shard| self.split_shard(shard, bin_of, bins))
            .collect();
        Self::merge_shard_splits(partials, bins)
    }

    /// Build the index with the two-pass exact-allocation kernel,
    /// walking the column one shard range at a time. Identical output
    /// to [`CategoricalIndex::build`] (postings are per-code row ids in
    /// ascending order either way) without the reallocation traffic of
    /// the push-based build.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when `attr` is not categorical.
    pub fn build_sharded(table: &Table, attr: usize, plan: &ShardPlan) -> Result<Self, StoreError> {
        let codes =
            table
                .column(attr)
                .as_categorical()
                .ok_or_else(|| StoreError::NotCategorical {
                    attribute: table.schema().attribute(attr).name.clone(),
                })?;
        let cardinality = table
            .schema()
            .attribute(attr)
            .cardinality()
            .expect("categorical has cardinality");
        // Count pass, fused with the byte-narrowed forward column when
        // the dictionary fits a byte: the fill pass then re-reads 1 byte
        // per row instead of 4 (the column is read once either way).
        let narrow = cardinality <= 256;
        let mut codes8: Vec<u8> = Vec::new();
        if narrow {
            // Narrowing is a pure elementwise truncation — one chunked,
            // autovectorizable pass per shard range.
            codes8.reserve_exact(codes.len());
            for s in 0..plan.shards() {
                codes8.extend(codes[plan.range(s)].iter().map(|&c| c as u8));
            }
        }
        let mut counts = vec![0u32; cardinality];
        for s in 0..plan.shards() {
            let range = plan.range(s);
            // Count through the narrow column when it exists: 1 byte per
            // row instead of 4 on a pass that does nothing else.
            if narrow {
                for &code in &codes8[range] {
                    // SAFETY: dictionary codes are `< cardinality` — the
                    // column invariant enforced when rows are pushed.
                    unsafe { *counts.get_unchecked_mut(code as usize) += 1 };
                }
            } else {
                for &code in &codes[range] {
                    // SAFETY: as above.
                    unsafe { *counts.get_unchecked_mut(code as usize) += 1 };
                }
            }
        }
        let mut buckets: Vec<Vec<u32>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        let mut cursors: Vec<*mut u32> = buckets.iter_mut().map(Vec::as_mut_ptr).collect();
        for s in 0..plan.shards() {
            let range = plan.range(s);
            let mut fill = |row: usize, code: usize| {
                // SAFETY: `code < cardinality` as above; each cursor
                // advances exactly `counts[code]` times (both passes
                // read the same column) over a buffer with that exact
                // capacity.
                unsafe {
                    let slot = &mut *cursors.as_mut_ptr().add(code);
                    slot.write(row as u32);
                    *slot = slot.add(1);
                }
            };
            if narrow {
                for (row, &code) in range.clone().zip(&codes8[range]) {
                    fill(row, code as usize);
                }
            } else {
                for (row, &code) in range.clone().zip(&codes[range]) {
                    fill(row, code as usize);
                }
            }
        }
        for (b, &c) in buckets.iter_mut().zip(&counts) {
            // SAFETY: exactly `c` elements were written into `b`.
            unsafe { b.set_len(c as usize) };
        }
        // Narrow indexes carry only the byte column — the wide copy
        // would be 4× the memory and its materialisation the build's
        // single largest allocation.
        Ok(CategoricalIndex {
            attr,
            postings: buckets.into_iter().map(RowSet::from_sorted).collect(),
            codes: if narrow { Vec::new() } else { codes.to_vec() },
            codes8: narrow.then_some(codes8),
        })
    }

    /// One-pass byte-kernel split: a single walk over `rows` reading the
    /// byte-narrowed forward column (`codes8`) and a byte bin array,
    /// filling every child through raw write cursors. Children reserve
    /// `rows.len()` capacity up front (no count pass), which keeps each
    /// row's memory traffic at 2 loads + 1 store — measured ~1.9× the
    /// scalar walk on audit-sized partitions. Only page-granular virtual
    /// capacity goes unused (untouched tail pages are never faulted),
    /// and [`ONEPASS_MAX_CARDINALITY`] bounds the reservation count.
    ///
    /// Returns `None` when this index carries no byte column (built by
    /// [`CategoricalIndex::build`], or cardinality >
    /// 256/`ONEPASS_MAX_CARDINALITY`) or when `bins > 256` would not
    /// fit `bin8` — callers fall back to
    /// [`CategoricalIndex::split_with_bins_two_pass`]. The output is
    /// bit-identical to [`CategoricalIndex::split_with_bins`]: rows keep
    /// parent order and bin counts are integers converted once.
    ///
    /// # Panics
    ///
    /// When `rows` or `bin8` disagree with the table (row out of range,
    /// `bin8[row] >= bins`) — same boundary contract as
    /// [`CategoricalIndex::split_with_bins`].
    pub fn split_onepass(&self, rows: &[u32], bin8: &[u8], bins: usize) -> Option<Vec<SplitChild>> {
        let codes8: &[u8] = self.codes8.as_deref()?;
        let cardinality = self.postings.len();
        if cardinality > ONEPASS_MAX_CARDINALITY || bins > 256 {
            return None;
        }
        let mut child_rows: Vec<Vec<u32>> = (0..cardinality)
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        let mut bin_counts = vec![0u32; cardinality * bins];
        let mut cursors: Vec<*mut u32> = child_rows.iter_mut().map(Vec::as_mut_ptr).collect();
        let bases: Vec<*mut u32> = cursors.clone();
        for &row in rows {
            let code = codes8[row as usize] as usize;
            let bin = bin8[row as usize] as usize;
            // Checked: the flat counter table lives in L1, so the bounds
            // check is ~free and keeps a bad `bin8` a panic, not UB.
            bin_counts[code * bins + bin] += 1;
            // SAFETY: `code < cardinality` is the dictionary invariant
            // (codes8 mirrors codes); each child's buffer has capacity
            // `rows.len()` and at most `rows.len()` writes happen in
            // total across all cursors.
            unsafe {
                let slot = cursors.get_unchecked_mut(code);
                slot.write(row);
                *slot = slot.add(1);
            }
        }
        let children = child_rows
            .iter_mut()
            .enumerate()
            .map(|(code, child)| {
                // SAFETY: the cursor advanced once per element written
                // into this child's buffer.
                let len = unsafe { cursors[code].offset_from(bases[code]) as usize };
                unsafe { child.set_len(len) };
                // The unwritten tail capacity stays reserved but its
                // pages are never touched, so the resident cost is the
                // rows plus at most one page of slop per child —
                // shrinking here would re-copy every child and give the
                // kernel's win back to the allocator.
                (code, std::mem::take(child))
            })
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(code, rows)| SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts: bin_counts[code * bins..(code + 1) * bins]
                    .iter()
                    .map(|&c| f64::from(c))
                    .collect(),
            })
            .collect();
        Some(children)
    }

    /// Byte-bin variant of [`CategoricalIndex::split_full_with_bins`]:
    /// the whole-table split straight from the postings, counting bins
    /// through the 1-byte bin array. Bit-identical output (counts are
    /// integers either way).
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_full_with_bins`].
    pub fn split_full_with_bins8(&self, bin8: &[u8], bins: usize) -> Vec<SplitChild> {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, posting)| !posting.is_empty())
            .map(|(code, posting)| {
                let mut counts = vec![0u32; bins];
                for &row in posting.rows() {
                    counts[bin8[row as usize] as usize] += 1;
                }
                SplitChild {
                    code: code as u32,
                    rows: posting.clone(),
                    bin_counts: counts.into_iter().map(f64::from).collect(),
                }
            })
            .collect()
    }
}

/// Per-shard partial of a sharded split: one shard's rows grouped by
/// code plus its flat `cardinality × bins` score-bin counts. Produced
/// by [`CategoricalIndex::split_shard`], consumed in shard order by
/// [`CategoricalIndex::merge_shard_splits`].
#[derive(Debug)]
pub struct ShardSplit {
    rows_by_code: Vec<Vec<u32>>,
    bin_counts: Vec<u32>,
}

/// Indexes for every categorical protected attribute of a table.
#[derive(Debug, Clone)]
pub struct IndexSet {
    indexes: Vec<Option<CategoricalIndex>>,
}

impl IndexSet {
    /// Build indexes for all splittable (categorical protected)
    /// attributes of `table`.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from index construction (cannot occur
    /// for attributes reported by [`crate::Schema::splittable`]).
    pub fn build(table: &Table) -> Result<Self, StoreError> {
        let mut indexes: Vec<Option<CategoricalIndex>> = Vec::new();
        indexes.resize_with(table.schema().width(), || None);
        for attr in table.schema().splittable() {
            indexes[attr] = Some(CategoricalIndex::build(table, attr)?);
        }
        Ok(IndexSet { indexes })
    }

    /// Build indexes for `attrs` only, with the two-pass sharded
    /// kernel. Each built index is identical to [`IndexSet::build`]'s;
    /// unlisted attributes simply carry no index ([`IndexSet::get`]
    /// returns `None`). The audit context uses this to index exactly
    /// the audited attributes instead of every splittable one.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when an attr is not categorical.
    pub fn build_sharded_subset(
        table: &Table,
        attrs: &[usize],
        plan: &ShardPlan,
    ) -> Result<Self, StoreError> {
        let mut indexes: Vec<Option<CategoricalIndex>> = Vec::new();
        indexes.resize_with(table.schema().width(), || None);
        for &attr in attrs {
            indexes[attr] = Some(CategoricalIndex::build_sharded(table, attr, plan)?);
        }
        Ok(IndexSet { indexes })
    }

    /// Assemble a set from externally-built indexes (see
    /// [`CategoricalIndex::from_parts`]); `width` is the schema width.
    /// Attributes without an entry carry no index.
    pub fn from_indexes(width: usize, built: Vec<CategoricalIndex>) -> Self {
        let mut indexes: Vec<Option<CategoricalIndex>> = Vec::new();
        indexes.resize_with(width, || None);
        for index in built {
            let attr = index.attribute();
            indexes[attr] = Some(index);
        }
        IndexSet { indexes }
    }

    /// The index for attribute `attr`, if one was built.
    pub fn get(&self, attr: usize) -> Option<&CategoricalIndex> {
        self.indexes.get(attr).and_then(Option::as_ref)
    }

    /// Append `table`'s last row to every maintained index (call after
    /// `Table::push_row` on the same table).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the table's last row disagrees with an
    /// index's attribute (cannot occur when the indexes were built from
    /// this table).
    pub fn push_row(&mut self, table: &Table) -> Result<(), StoreError> {
        let row = table.len().checked_sub(1).ok_or(StoreError::RowArity {
            expected: 1,
            got: 0,
        })?;
        for index in self.indexes.iter_mut().flatten() {
            let attr = index.attribute();
            let code = table.code_at(attr, row)?;
            index.push_row(code, &table.schema().attribute(attr).name)?;
        }
        Ok(())
    }

    /// Re-home `row` under `new_code` in attribute `attr`'s index.
    /// No-op when the attribute carries no index (non-splittable
    /// categorical attributes are never constrained by predicates).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] for invalid codes/rows.
    pub fn set_code(
        &mut self,
        attr: usize,
        row: u32,
        new_code: u32,
        attribute_name: &str,
    ) -> Result<(), StoreError> {
        if let Some(index) = self.indexes.get_mut(attr).and_then(Option::as_mut) {
            index.set_code(row, new_code, attribute_name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeKind, Schema};
    use crate::table::Value;

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
            .categorical(
                "lang",
                AttributeKind::Protected,
                &["English", "Indian", "Other"],
            )
            .numeric("score", AttributeKind::Observed, 0.0, 1.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (g, l, s) in [
            ("Male", "English", 0.9),
            ("Male", "Indian", 0.8),
            ("Female", "English", 0.7),
            ("Female", "Other", 0.6),
            ("Male", "English", 0.5),
        ] {
            t.push_row(&[Value::cat(g), Value::cat(l), Value::num(s)])
                .unwrap();
        }
        t
    }

    #[test]
    fn postings_cover_table() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert_eq!(idx.rows_with_code(0).rows(), &[0, 1, 4]);
        assert_eq!(idx.rows_with_code(1).rows(), &[2, 3]);
        assert_eq!(idx.attribute(), 0);
    }

    #[test]
    fn split_restricts_to_within() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 1).unwrap();
        let within = RowSet::from_rows(vec![0, 2, 3]);
        let parts = idx.split(&within);
        // English -> {0, 2}, Other -> {3}; Indian empty (dropped).
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1.rows(), &[0, 2]);
        assert_eq!(parts[1].0, 2);
        assert_eq!(parts[1].1.rows(), &[3]);
    }

    #[test]
    fn split_partitions_are_disjoint_and_cover() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        let all = RowSet::all(t.len());
        let parts = idx.split(&all);
        let mut union = RowSet::empty();
        for (i, (_, a)) in parts.iter().enumerate() {
            for (_, b) in &parts[i + 1..] {
                assert!(a.is_disjoint(b));
            }
            union = union.union(a);
        }
        assert_eq!(union, all);
    }

    #[test]
    fn non_categorical_rejected() {
        let t = table();
        assert!(matches!(
            CategoricalIndex::build(&t, 2),
            Err(StoreError::NotCategorical { .. })
        ));
    }

    #[test]
    fn split_with_bins_matches_legacy_split() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 1).unwrap();
        // Pretend scores fall in bins 0..3 per row.
        let bin_of = [0u32, 1, 2, 1, 0];
        let within = RowSet::from_rows(vec![0, 2, 3, 4]);
        let kernel = idx.split_with_bins(&within, &bin_of, 3);
        let legacy = idx.split(&within);
        assert_eq!(kernel.len(), legacy.len());
        for (child, (code, rows)) in kernel.iter().zip(&legacy) {
            assert_eq!(child.code, *code);
            assert_eq!(&child.rows, rows);
            // Bin counts re-derivable from the rows and bin_of.
            let mut expected = vec![0.0; 3];
            for row in rows.iter() {
                expected[bin_of[row] as usize] += 1.0;
            }
            assert_eq!(child.bin_counts, expected);
        }
    }

    #[test]
    fn split_with_bins_of_empty_set_is_empty() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert!(idx.split_with_bins(&RowSet::empty(), &[0; 5], 4).is_empty());
    }

    #[test]
    fn sharded_split_matches_serial_kernel_for_every_shard_count() {
        let t = table();
        let bin_of = [0u32, 1, 2, 1, 0];
        for attr in [0usize, 1] {
            let idx = CategoricalIndex::build(&t, attr).unwrap();
            for within in [
                RowSet::all(t.len()),
                RowSet::from_rows(vec![0, 2, 3, 4]),
                RowSet::from_rows(vec![1]),
                RowSet::empty(),
            ] {
                let serial = idx.split_with_bins(&within, &bin_of, 3);
                for shards in [1usize, 2, 3, 7] {
                    let plan = ShardPlan::new(t.len(), shards);
                    let sharded = idx.split_with_bins_sharded(&within, &bin_of, 3, &plan);
                    assert_eq!(sharded.len(), serial.len(), "shards={shards}");
                    for (a, b) in sharded.iter().zip(&serial) {
                        assert_eq!(a.code, b.code);
                        assert_eq!(a.rows, b.rows);
                        assert_eq!(a.bin_counts, b.bin_counts);
                    }
                }
                // The serial two-pass fast path matches too.
                let two_pass = idx.split_with_bins_two_pass(within.rows(), &bin_of, 3);
                assert_eq!(two_pass.len(), serial.len());
                for (a, b) in two_pass.iter().zip(&serial) {
                    assert_eq!(a.code, b.code);
                    assert_eq!(a.rows, b.rows);
                    assert_eq!(a.bin_counts, b.bin_counts);
                }
            }
        }
    }

    #[test]
    fn full_table_split_matches_the_general_kernel() {
        let t = table();
        let bin_of = [0u32, 1, 2, 1, 0];
        for attr in [0usize, 1] {
            let idx = CategoricalIndex::build(&t, attr).unwrap();
            let general = idx.split_with_bins(&RowSet::all(t.len()), &bin_of, 3);
            let full = idx.split_full_with_bins(&bin_of, 3);
            assert_eq!(full.len(), general.len());
            for (a, b) in full.iter().zip(&general) {
                assert_eq!(a.code, b.code);
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.bin_counts, b.bin_counts);
            }
        }
    }

    #[test]
    fn onepass_byte_kernel_matches_the_scalar_kernel() {
        let t = table();
        let bin_of = [0u32, 1, 2, 1, 0];
        let bin8: Vec<u8> = bin_of.iter().map(|&b| b as u8).collect();
        let plan = ShardPlan::new(t.len(), 2);
        for attr in [0usize, 1] {
            let legacy = CategoricalIndex::build(&t, attr).unwrap();
            assert!(
                legacy.split_onepass(&[0, 1], &bin8, 3).is_none(),
                "legacy-built index has no byte column"
            );
            let idx = CategoricalIndex::build_sharded(&t, attr, &plan).unwrap();
            for within in [
                RowSet::all(t.len()),
                RowSet::from_rows(vec![0, 2, 3, 4]),
                RowSet::from_rows(vec![1]),
                RowSet::empty(),
            ] {
                let serial = idx.split_with_bins(&within, &bin_of, 3);
                let onepass = idx.split_onepass(within.rows(), &bin8, 3).unwrap();
                assert_eq!(onepass.len(), serial.len());
                for (a, b) in onepass.iter().zip(&serial) {
                    assert_eq!(a.code, b.code);
                    assert_eq!(a.rows, b.rows);
                    assert_eq!(a.bin_counts, b.bin_counts);
                }
                let full8 = idx.split_full_with_bins8(&bin8, 3);
                let full = idx.split_full_with_bins(&bin_of, 3);
                assert_eq!(full8.len(), full.len());
                for (a, b) in full8.iter().zip(&full) {
                    assert_eq!(a.code, b.code);
                    assert_eq!(a.rows, b.rows);
                    assert_eq!(a.bin_counts, b.bin_counts);
                }
            }
        }
    }

    #[test]
    fn byte_column_survives_index_maintenance() {
        let mut t = table();
        let plan = ShardPlan::new(t.len(), 3);
        let mut idx = CategoricalIndex::build_sharded(&t, 0, &plan).unwrap();
        t.push_row(&[Value::cat("Female"), Value::cat("Indian"), Value::num(0.4)])
            .unwrap();
        idx.push_row(1, "gender").unwrap();
        idx.set_code(0, 1, "gender").unwrap();
        let bin_of = [0u32, 1, 2, 1, 0, 2];
        let bin8: Vec<u8> = bin_of.iter().map(|&b| b as u8).collect();
        let within = RowSet::all(t.len());
        let serial = idx.split_with_bins(&within, &bin_of, 3);
        let onepass = idx.split_onepass(within.rows(), &bin8, 3).unwrap();
        assert_eq!(onepass.len(), serial.len());
        for (a, b) in onepass.iter().zip(&serial) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.bin_counts, b.bin_counts);
        }
    }

    #[test]
    fn subset_build_indexes_only_the_requested_attributes() {
        let t = table();
        let plan = ShardPlan::new(t.len(), 2);
        let subset = IndexSet::build_sharded_subset(&t, &[1], &plan).unwrap();
        assert!(subset.get(0).is_none());
        let full = IndexSet::build(&t).unwrap();
        assert_eq!(subset.get(1).unwrap().codes(), full.get(1).unwrap().codes());
    }

    #[test]
    fn sharded_index_build_matches_push_based_build() {
        let t = table();
        for shards in [1usize, 2, 3, 7] {
            let plan = ShardPlan::new(t.len(), shards);
            let sharded = IndexSet::build_sharded_subset(&t, &[0, 1], &plan).unwrap();
            let legacy = IndexSet::build(&t).unwrap();
            for (attr, cardinality) in [(0usize, 2u32), (1, 3)] {
                let a = sharded.get(attr).unwrap();
                let b = legacy.get(attr).unwrap();
                assert_eq!(a.codes(), b.codes());
                for code in 0..cardinality {
                    assert_eq!(a.rows_with_code(code), b.rows_with_code(code));
                }
            }
        }
    }

    #[test]
    fn forward_codes_match_the_column() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert_eq!(idx.codes(), t.column(0).as_categorical().unwrap());
    }

    #[test]
    fn index_set_builds_for_splittable_only() {
        let t = table();
        let set = IndexSet::build(&t).unwrap();
        assert!(set.get(0).is_some());
        assert!(set.get(1).is_some());
        assert!(set.get(2).is_none());
    }

    #[test]
    fn push_row_matches_rebuild() {
        let mut t = table();
        let mut set = IndexSet::build(&t).unwrap();
        t.push_row(&[Value::cat("Female"), Value::cat("Indian"), Value::num(0.4)])
            .unwrap();
        set.push_row(&t).unwrap();
        let rebuilt = IndexSet::build(&t).unwrap();
        for attr in [0usize, 1] {
            let maintained = set.get(attr).unwrap();
            let fresh = rebuilt.get(attr).unwrap();
            assert_eq!(maintained.codes(), fresh.codes());
            for code in 0..3u32.min(fresh.codes().iter().max().unwrap() + 1) {
                assert_eq!(maintained.rows_with_code(code), fresh.rows_with_code(code));
            }
        }
    }

    #[test]
    fn set_code_moves_postings() {
        let t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        // Row 0 is Male (code 0); move to Female (code 1).
        idx.set_code(0, 1, "gender").unwrap();
        assert_eq!(idx.rows_with_code(0).rows(), &[1, 4]);
        assert_eq!(idx.rows_with_code(1).rows(), &[0, 2, 3]);
        assert_eq!(idx.codes()[0], 1);
        // Same-code move is a no-op.
        idx.set_code(0, 1, "gender").unwrap();
        assert_eq!(idx.rows_with_code(1).rows(), &[0, 2, 3]);
        // Bad code / bad row rejected.
        assert!(idx.set_code(0, 9, "gender").is_err());
        assert!(idx.set_code(99, 0, "gender").is_err());
    }

    #[test]
    fn index_push_row_rejects_bad_code() {
        let t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        assert!(matches!(
            idx.push_row(7, "gender"),
            Err(StoreError::BadCode { code: 7, .. })
        ));
    }

    #[test]
    fn index_set_set_code_skips_unindexed_attributes() {
        let t = table();
        let mut set = IndexSet::build(&t).unwrap();
        // Attribute 2 is numeric: no index, silently skipped.
        set.set_code(2, 0, 1, "score").unwrap();
        // Attribute 0 is indexed: forwarded.
        set.set_code(0, 0, 1, "gender").unwrap();
        assert_eq!(set.get(0).unwrap().codes()[0], 1);
    }

    #[test]
    fn empty_table_index() {
        let schema = Schema::builder()
            .categorical("g", AttributeKind::Protected, &["a", "b"])
            .build()
            .unwrap();
        let t = Table::new(schema);
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert!(idx.rows_with_code(0).is_empty());
        assert!(idx.split(&RowSet::empty()).is_empty());
    }
}
