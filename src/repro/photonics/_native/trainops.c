/* Fused kernels for the compiled training step (repro.core.train_plan).
 *
 * Each kernel performs exactly the float operations of the numpy emitter it
 * replaces, in the same order, so planned training stays bit-identical with
 * or without the native library:
 *
 * - every reduction over the batch and spatial axes of a C-contiguous
 *   (N, C, S) array follows numpy's float64 add-reduce: per channel, start
 *   from +0.0 and add pairwise_sum(x[n, c, :]) for n = 0 .. N-1;
 * - every elementwise step rounds once, as one numpy ufunc does; the build
 *   disables floating-point contraction (-ffp-contract=off) so that no
 *   `a * b + c` fuses into one rounding.  It compiles with -O3 so the
 *   per-element loops vectorise; vector lanes perform the same IEEE
 *   operations, and nothing is reassociated without -ffast-math.
 *
 * The batch-norm kernels make all their passes over one channel's N rows
 * before moving on, so the rows are re-read from cache, not memory.
 *
 * All integer arguments are C `long` (LP64), matching np.intp.
 */

#include <math.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* numpy's pairwise summation                                          */
/* ------------------------------------------------------------------ */

#define PW_BLOCKSIZE 128

/* The pairwise sum numpy's add-reduce applies to each contiguous inner run:
 * below 8 elements a plain loop, up to 128 eight accumulators combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) plus a sequential tail,
 * above that a split at a multiple of 8 near the middle. */
static double pairwise_sum(const double *a, long n)
{
    long i;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        double res;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    {
        long n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* ------------------------------------------------------------------ */
/* split batch normalisation                                           */
/* ------------------------------------------------------------------ */

/* Training-mode batch-norm forward over (n, c, s) data, reducing over the
 * batch and spatial axes (s == 1 for BatchNorm1d).  The numpy body:
 *
 *   mean = x.mean(axes);  sub = x - mean;  var = (sub ** 2).mean(axes)
 *   sq = sqrt(var + eps);  norm = sub / sq;  out = norm * w + b
 *
 * mean, var, sq: (c,) outputs.  sub, norm, out: (n, c, s) outputs; for the
 * non-affine form pass weight == bias == NULL and norm == out.
 * Returns 0, or -1 if the row scratch could not be allocated.
 */
int trainops_bn_forward(const double *x, long n, long c, long s, double eps,
                        double *mean, double *var, double *sq,
                        double *sub, double *norm, double *out,
                        const double *weight, const double *bias)
{
    double count = (double) (n * s);
    double *row = (double *) malloc((size_t) (s > 0 ? s : 1) * sizeof(double));
    long ch, i, j;
    if (row == NULL)
        return -1;
    for (ch = 0; ch < c; ++ch) {
        double acc = 0.0, mu, sd;
        for (i = 0; i < n; ++i)
            acc += pairwise_sum(x + (i * c + ch) * s, s);
        mu = acc / count;
        mean[ch] = mu;
        acc = 0.0;
        for (i = 0; i < n; ++i) {
            const double *xr = x + (i * c + ch) * s;
            double *sr = sub + (i * c + ch) * s;
            for (j = 0; j < s; ++j) {
                double d = xr[j] - mu;
                sr[j] = d;
                row[j] = d * d;
            }
            acc += pairwise_sum(row, s);
        }
        var[ch] = acc / count;
        sd = sqrt(var[ch] + eps);
        sq[ch] = sd;
        for (i = 0; i < n; ++i) {
            long base = (i * c + ch) * s;
            const double *sr = sub + base;
            double *nr = norm + base;
            for (j = 0; j < s; ++j)
                nr[j] = sr[j] / sd;
            if (weight != NULL) {
                double w = weight[ch], b = bias[ch];
                double *orow = out + base;
                for (j = 0; j < s; ++j) {
                    double scaled = nr[j] * w;
                    orow[j] = scaled + b;
                }
            }
        }
    }
    free(row);
    return 0;
}

/* Batch-norm backward, the op order of train_plan._b_batch_norm_build:
 *
 *   g_norm = grad * w                      (grad itself when non-affine)
 *   g_weight = sum(grad * norm);  g_bias = sum(grad)
 *   g_sub = g_norm / sq
 *   g_sq = sum((g_norm * sub) / -(sq * sq))
 *   m = ((g_sq * 0.5) / sq) * 2.0
 *   dx = ((m * sub) / count + g_sub) + (-sum(g_sub)) / count
 *
 * dx is written (accumulate == 0) or added (accumulate != 0) into gx.
 * g_weight / g_bias are written to (c,) slots when non-NULL.  weight == NULL
 * selects the non-affine form.  Returns 0, or -1 on allocation failure.
 */
int trainops_bn_backward(const double *grad, long n, long c, long s,
                         const double *sub, const double *sq,
                         const double *norm, double *gx, int accumulate,
                         double *gweight, double *gbias,
                         const double *weight)
{
    double count = (double) (n * s);
    size_t row_len = (size_t) (s > 0 ? s : 1);
    /* g_sub of the current channel's n rows, reused by the second pass */
    double *gsub = (double *) malloc((size_t) (n + 2) * row_len * sizeof(double));
    double *terms = gsub + (size_t) n * row_len;
    double *wterms = terms + row_len;
    long ch, i, j;
    if (gsub == NULL)
        return -1;
    for (ch = 0; ch < c; ++ch) {
        double w = weight != NULL ? weight[ch] : 1.0;
        double sd = sq[ch];
        double neg_sq2 = -(sd * sd);
        double acc_w = 0.0, acc_b = 0.0, acc_sq = 0.0, acc_sub = 0.0;
        double m, mean_term;
        for (i = 0; i < n; ++i) {
            long base = (i * c + ch) * s;
            const double *gr = grad + base;
            const double *sr = sub + base;
            double *gs = gsub + i * s;
            if (gweight != NULL) {
                const double *nr = norm + base;
                for (j = 0; j < s; ++j)
                    wterms[j] = gr[j] * nr[j];
                acc_w += pairwise_sum(wterms, s);
            }
            if (gbias != NULL)
                acc_b += pairwise_sum(gr, s);
            for (j = 0; j < s; ++j) {
                double g = weight != NULL ? gr[j] * w : gr[j];
                gs[j] = g / sd;
                terms[j] = (g * sr[j]) / neg_sq2;
            }
            acc_sq += pairwise_sum(terms, s);
            acc_sub += pairwise_sum(gs, s);
        }
        if (gweight != NULL)
            gweight[ch] = acc_w;
        if (gbias != NULL)
            gbias[ch] = acc_b;
        m = ((acc_sq * 0.5) / sd) * 2.0;
        mean_term = (-acc_sub) / count;
        for (i = 0; i < n; ++i) {
            long base = (i * c + ch) * s;
            const double *sr = sub + base;
            const double *gs = gsub + i * s;
            double *xr = gx + base;
            if (accumulate) {
                for (j = 0; j < s; ++j)
                    xr[j] += ((m * sr[j]) / count + gs[j]) + mean_term;
            } else {
                for (j = 0; j < s; ++j)
                    xr[j] = ((m * sr[j]) / count + gs[j]) + mean_term;
            }
        }
    }
    free(gsub);
    return 0;
}

/* ------------------------------------------------------------------ */
/* col2im scatter into NCHW gradient planes                            */
/* ------------------------------------------------------------------ */

/* Adjoint of the plan's im2col: scatter the column gradient
 *   dcols: (channels * kh * kw, out_h * out_w * batch), rows (c, i, j),
 *          columns (oh, ow, b)
 * into two NCHW planes split at channel `split`: top (batch, split, H, W)
 * and bottom (batch, channels - split, H, W).  A NULL plane is skipped.
 *
 * Each pixel sums its window contributions onto +0.0 in (i, j) order, the
 * element order of both numpy scatters (bincount and shifted add).  When the
 * windows tile the image exactly, numpy copies instead of adding, which keeps
 * a -0.0; starting from -0.0 there reproduces the copy (-0.0 + v == v).
 * Each plane is written (accumulate_* == 0) or added to.
 *
 * One image row of one channel at a time, the sums build up in a (W, batch)
 * tile, so every add runs over `batch` contiguous elements of dcols; the
 * tile is then transposed into the row's NCHW slots.
 * Returns 0, or -1 on allocation failure.
 */
int trainops_col2im_planes(const double *dcols, long batch, long channels,
                           long height, long width,
                           long kernel_h, long kernel_w,
                           long stride_h, long stride_w,
                           long pad_h, long pad_w,
                           long out_h, long out_w, long split,
                           double *top, int accumulate_top,
                           double *bottom, int accumulate_bottom)
{
    long n_cols = out_h * out_w * batch;
    int tiled = pad_h == 0 && pad_w == 0 && stride_h == kernel_h
        && stride_w == kernel_w && out_h * kernel_h == height
        && out_w * kernel_w == width;
    double zero = tiled ? -0.0 : 0.0;
    /* per output row h: the valid (i, oh) pairs as dcols offsets; likewise
     * per output column w for (j, ow) */
    long *h_count = (long *) malloc((size_t) (height + height * kernel_h
                                              + width + width * kernel_w + 1)
                                    * sizeof(long));
    double *tile = (double *) malloc((size_t) (width * batch + 1)
                                     * sizeof(double));
    long *h_offset, *w_count, *w_offset;
    long ch, h, w, b, i, k;
    if (h_count == NULL || tile == NULL) {
        free(h_count);
        free(tile);
        return -1;
    }
    h_offset = h_count + height;
    w_count = h_offset + height * kernel_h;
    w_offset = w_count + width;
    for (h = 0; h < height; ++h) {
        long valid = 0;
        for (i = 0; i < kernel_h; ++i) {
            long t = h + pad_h - i;
            if (t < 0 || t % stride_h != 0 || t / stride_h >= out_h)
                continue;
            h_offset[h * kernel_h + valid++] = i * kernel_w * n_cols
                + (t / stride_h) * out_w * batch;
        }
        h_count[h] = valid;
    }
    for (w = 0; w < width; ++w) {
        long valid = 0;
        for (k = 0; k < kernel_w; ++k) {
            long t = w + pad_w - k;
            if (t < 0 || t % stride_w != 0 || t / stride_w >= out_w)
                continue;
            w_offset[w * kernel_w + valid++] = k * n_cols + (t / stride_w) * batch;
        }
        w_count[w] = valid;
    }
    for (ch = 0; ch < channels; ++ch) {
        const double *src = dcols + ch * kernel_h * kernel_w * n_cols;
        double *dst;
        long dst_channels, dst_ch;
        int accumulate;
        if (ch < split) {
            dst = top; dst_channels = split; dst_ch = ch;
            accumulate = accumulate_top;
        } else {
            dst = bottom; dst_channels = channels - split; dst_ch = ch - split;
            accumulate = accumulate_bottom;
        }
        if (dst == NULL)
            continue;
        for (h = 0; h < height; ++h) {
            for (k = 0; k < width * batch; ++k)
                tile[k] = zero;
            /* i outer, j inner: each pixel adds in (i, j) order */
            for (i = 0; i < h_count[h]; ++i) {
                const double *src_h = src + h_offset[h * kernel_h + i];
                for (w = 0; w < width; ++w) {
                    double *acc = tile + w * batch;
                    for (k = 0; k < w_count[w]; ++k) {
                        const double *from = src_h + w_offset[w * kernel_w + k];
                        for (b = 0; b < batch; ++b)
                            acc[b] += from[b];
                    }
                }
            }
            for (b = 0; b < batch; ++b) {
                double *row = dst + ((b * dst_channels + dst_ch) * height + h) * width;
                if (accumulate) {
                    for (w = 0; w < width; ++w)
                        row[w] += tile[w * batch + b];
                } else {
                    for (w = 0; w < width; ++w)
                        row[w] = tile[w * batch + b];
                }
            }
        }
    }
    free(h_count);
    free(tile);
    return 0;
}
