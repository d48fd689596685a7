//! Montage: `mProject` re-projects each input image; `mDiffFit` compares
//! overlapping neighbours; a global `mConcatFit`/`mBgModel` pair fits the
//! background model that `mBackground` applies per image; `mImgtbl`,
//! `mAdd`, `mShrink` and `mJPEG` assemble the final mosaic. Layered with
//! global synchronisation points.

use super::Ctx;

/// Builds a Montage instance with approximately `n` tasks.
pub(crate) fn build(ctx: &mut Ctx, n: usize) {
    let n = n.max(12);
    // n = 1 (source) + W (project) + W-1 (diff) + 2 (concat, bgmodel)
    //     + W (background) + 4 (imgtbl, add, shrink, jpeg)
    //   = 3W + 6
    let w = ((n - 6) / 3).max(2);

    let src = ctx.task("stage_in");
    let projects: Vec<_> = (0..w)
        .map(|i| {
            let t = ctx.task(&format!("mProject_{i}"));
            ctx.edge(src, t);
            t
        })
        .collect();
    let concat = ctx.task("mConcatFit");
    for i in 0..w - 1 {
        let diff = ctx.task(&format!("mDiffFit_{i}"));
        ctx.edge(projects[i], diff);
        ctx.edge(projects[i + 1], diff);
        ctx.edge(diff, concat);
    }
    let bgmodel = ctx.task("mBgModel");
    ctx.edge(concat, bgmodel);
    let imgtbl = ctx.task("mImgtbl");
    for (i, &p) in projects.iter().enumerate() {
        let bg = ctx.task(&format!("mBackground_{i}"));
        ctx.edge(bgmodel, bg);
        ctx.edge(p, bg);
        ctx.edge(bg, imgtbl);
    }
    let madd = ctx.task("mAdd");
    ctx.edge(imgtbl, madd);
    let shrink = ctx.task("mShrink");
    ctx.edge(madd, shrink);
    let jpeg = ctx.task("mJPEG");
    ctx.edge(shrink, jpeg);
}

#[cfg(test)]
mod tests {
    use crate::families::Family;
    use crate::weights::WeightModel;

    #[test]
    fn count_close_and_layered() {
        for n in [200usize, 1_000] {
            let g = Family::Montage.generate(n, &WeightModel::unit(), 0);
            assert!(
                g.node_count().abs_diff(n) <= 3,
                "n={n} got {}",
                g.node_count()
            );
            assert_eq!(g.sources().count(), 1);
            assert_eq!(g.targets().count(), 1);
            // diffs have two project parents
            let diffs = g
                .node_ids()
                .filter(|&u| g.label(u).is_some_and(|l| l.starts_with("mDiffFit")))
                .count();
            assert!(diffs > 0);
        }
    }
}
